package steiner

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// splitGraph builds one random multigraph twice under the same node and
// edge ids: as a single Graph, and as a base Graph holding its first nb
// nodes and first m edges, extended by an overlay with the rest. Base
// edges join base nodes; overlay edges join any two nodes, so the overlay
// adds edges onto base nodes as well as between its own. About one edge in
// six is a self-loop and one in six repeats the previous edge's ends (a
// parallel edge); plateau costs are drawn from {0, 0.3, 0.7}.
func splitGraph(r *rand.Rand, n, nb, edges, m int, plateau bool) (*Graph, *Overlay) {
	flat, base := NewGraph(), NewGraph()
	for range n {
		flat.AddNode()
	}
	for range nb {
		base.AddNode()
	}
	type end struct{ u, v NodeID }
	ends := make([]end, edges)
	costs := make([]float64, edges)
	for i := range ends {
		span := n
		if i < m {
			span = nb
		}
		u, v := NodeID(r.Intn(span)), NodeID(r.Intn(span))
		switch r.Intn(6) {
		case 0:
			v = u
		case 1:
			if i > 0 {
				u, v = ends[i-1].v, ends[i-1].u
			}
		}
		ends[i] = end{u, v}
		if plateau {
			costs[i] = []float64{0, 0.3, 0.7}[r.Intn(3)]
		} else {
			costs[i] = r.Float64()
		}
	}
	for i := range m {
		base.AddEdge(ends[i].u, ends[i].v, costs[i])
	}
	ov := NewOverlay(base)
	for range n - nb {
		ov.AddNode()
	}
	for i, e := range ends {
		flat.AddEdge(e.u, e.v, costs[i])
		if i >= m {
			ov.AddEdge(e.u, e.v, costs[i])
		}
	}
	return flat, ov
}

// checkOverlayEquivalence requires the searches over the flat graph and
// over base + overlay to agree exactly: the top-k trees (bit-equal costs)
// and the work counters, the α-neighbourhoods, and Dijkstra's distances.
func checkOverlayEquivalence(t *testing.T, seed int64, n, nb, edges, m, numTerms, k int, plateau bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	flat, ov := splitGraph(r, n, nb, edges, m, plateau)
	terms := make([]NodeID, numTerms)
	for i := range terms {
		terms[i] = NodeID(r.Intn(n))
	}
	if len(slices.Compact(slices.Sorted(slices.Values(terms)))) <= MaxExactTerminals {
		want, wantSt := TopKSteinerStats(flat, terms, k, math.Inf(1))
		got, gotSt := TopKSteinerStats(ov, terms, k, math.Inf(1))
		assertSameTrees(t, "overlay", got, want)
		if gotSt != wantSt {
			t.Fatalf("overlay search work %+v, flat graph %+v", gotSt, wantSt)
		}
	}
	for _, alpha := range []float64{0, 0.3, 0.7, 2 * r.Float64(), math.Inf(1)} {
		if got, want := NeighborhoodIntersectOn(ov, terms, alpha), NeighborhoodIntersectOn(flat, terms, alpha); !maps.Equal(got, want) {
			t.Fatalf("alpha %v: overlay neighbourhood %v, flat graph %v", alpha, got, want)
		}
	}
	for _, src := range terms {
		got, want := DijkstraOn(ov, src), DijkstraOn(flat, src)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("from %d: overlay distance to %d is %v, flat graph %v", src, v, got[v], want[v])
			}
		}
	}
}

// FuzzOverlayEquivalence: a search over base + overlay is a search over
// the one graph holding the same edges under the same ids — the overlay's
// delta lists, merged into the base's for the base nodes it touches, are
// the lists the flat graph's CSR holds.
func FuzzOverlayEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint8(4+seed), uint8(seed), uint8(3*seed), uint8(seed), uint8(2+seed%4), uint8(1+seed%7), seed%2 == 0)
	}
	f.Add(int64(99), uint8(40), uint8(30), uint8(80), uint8(60), uint8(3), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, n, nb, edges, m, numTerms, k uint8, plateau bool) {
		nn := 2 + int(n)%24
		nbb := 1 + int(nb)%nn
		ne := int(edges) % 64
		checkOverlayEquivalence(t, seed, nn, nbb, ne, int(m)%(ne+1), 1+int(numTerms)%min(5, nn), 1+int(k)%8, plateau)
	})
}

// NewOverlay returns an empty overlay over a frozen copy of base.
func NewOverlay(base *Graph) *Overlay { return base.Freeze().NewOverlay() }
