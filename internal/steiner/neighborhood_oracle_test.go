package steiner

import (
	"maps"
	"math"
	"math/rand"
	"testing"
)

// oracleNeighborhoodIntersectOn is the intersection neighbourhood as it
// stood before it shared the search's Dijkstra loop and scratch — a full
// distance slice per source, a map pruned per source — kept as the reference
// TestNeighborhoodMatchesOracle compares against.
func oracleNeighborhoodIntersectOn(g GraphView, sources []NodeID, alpha float64) map[NodeID]struct{} {
	out := make(map[NodeID]struct{})
	for i, s := range sources {
		d := DijkstraOn(g, s)
		if i == 0 {
			for v, dist := range d {
				if dist <= alpha {
					out[NodeID(v)] = struct{}{}
				}
			}
			continue
		}
		for v := range out {
			if d[v] > alpha {
				delete(out, v)
			}
		}
	}
	return out
}

// TestNeighborhoodMatchesOracle: the neighbourhood returns exactly the
// oracle's node set — on graphs and overlays, with plateau costs (so many
// nodes sit exactly at alpha), a disconnected part, no sources, and alpha at
// 0 and +Inf.
func TestNeighborhoodMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		g, terms := plateauGraph(r, 8+r.Intn(30), r.Intn(40), 1+r.Intn(4))
		if trial%5 == 0 {
			island := g.AddNode()
			g.AddEdge(island, g.AddNode(), 0.3)
			terms = append(terms, island)
		}
		var view GraphView = g
		if trial%2 == 1 {
			view, terms = overlayOf(r, g, terms)
		}
		for _, alpha := range []float64{0, 0.3, 0.7, 1 + 2*r.Float64(), math.Inf(1)} {
			for _, srcs := range [][]NodeID{terms, terms[:1], nil} {
				if got, want := NeighborhoodIntersectOn(view, srcs, alpha), oracleNeighborhoodIntersectOn(view, srcs, alpha); !maps.Equal(got, want) {
					t.Fatalf("trial %d alpha %v: intersection %v, oracle %v", trial, alpha, got, want)
				}
			}
		}
	}
}
