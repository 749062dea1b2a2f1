package steiner

import (
	"math"
	"slices"
)

// DijkstraOn computes shortest path costs from src to every node of a graph
// view (base graph or base∪overlay). Unreachable nodes have distance +Inf.
// Only tests call it: searchgraph's TestOneCSRPerGeneration and
// TestRepricedGenerationSearchesMatchFlatCopy compare distances across
// views with it.
func DijkstraOn(g GraphView, src NodeID) []float64 {
	s := acquireSearch()
	defer releaseSearch(s)
	s.build(g)
	d := make([]float64, s.n)
	s.startDijkstra(src, d)
	s.dijkstra(d, math.Inf(1), 0)
	return d
}

// startDijkstra sets d to +Inf everywhere but src and queues src alone;
// dijkstra then advances the search.
func (s *search) startDijkstra(src NodeID, d []float64) {
	inf := math.Inf(1)
	for i := range d {
		d[i] = inf
	}
	d[src] = 0
	s.dq.Reset()
	s.dq.Push(item{cost: 0, id: int32(src)})
}

// dijkstra is the package's one Dijkstra loop. It advances the search
// whose queue is s.dq and whose distances are d, settling nodes in
// ascending distance and relaxing their arcs, until the least queued
// distance exceeds radius or the queue is empty. With pending > 0 it stops
// instead right after settling the pending-th node marked with s.stamp, and
// returns how many marked nodes it did not reach.
//
// A search stopped at a radius can be resumed by a later call, and the
// pops it makes are the prefix of a full run's: every node within radius
// holds its exact distance, every other node a value above radius (the
// tentative value of some path, or +Inf). The distances do not depend on
// the order of a node's arcs — each is the least left-to-right float sum
// over the paths to its node.
func (s *search) dijkstra(d []float64, radius float64, pending int) int {
	for s.dq.Len() > 0 && s.dq.items[0].cost <= radius {
		it := s.dq.Pop()
		if it.cost > d[it.id] {
			continue
		}
		as, _ := s.arcs(it.id)
		for _, a := range as {
			if nd := it.cost + a.cost; nd < d[a.to] {
				d[a.to] = nd
				s.dq.Push(item{cost: nd, id: a.to})
			}
		}
		if pending > 0 && s.mark[it.id] == s.stamp {
			if pending--; pending == 0 {
				break
			}
		}
	}
	return pending
}

// NeighborhoodIntersectOn returns the nodes within alpha of EVERY source:
// the α-cost neighbourhood GETCOSTNEIGHBORHOOD of Algorithm 2, refined.
// Every node of a Steiner tree of cost ≤ α lies, along tree paths of cost
// ≤ α, within distance α of each terminal, so any node that could join
// such a tree is in the intersection. Algorithm 2 as written unions
// per-keyword neighbourhoods; the intersection drops no node of such a
// tree in g, while pruning far more aggressively on large graphs. Core's
// VIEWBASEDALIGNER reads the same fold from DistanceRowsOn, beside the
// bounds it needs for trees through a source not aligned yet.
func NeighborhoodIntersectOn(g GraphView, sources []NodeID, alpha float64) map[NodeID]struct{} {
	out := make(map[NodeID]struct{})
	if len(sources) == 0 {
		return out
	}
	for v, d := range DistanceRowsOn(g, sources, alpha, func(int, []float64) {}) {
		if d <= alpha {
			out[NodeID(v)] = struct{}{}
		}
	}
	return out
}

// DistanceRowsOn runs one Dijkstra per source over a retained search's
// view of g, each only as far as radius, hands each source's distance
// table to row in source order, and returns, per node, its farthest
// source's distance. In a table, a node within radius holds its exact
// distance, every other node some value above radius (the tentative value
// of some path, or +Inf): its distance is above radius too, but may be
// below that value. So a node within radius of every source holds its
// exact farthest distance, and every other node a value above radius. The
// table is reused for the next source, so row must not keep it.
func DistanceRowsOn(g GraphView, sources []NodeID, radius float64, row func(i int, d []float64)) []float64 {
	s := acquireSearch()
	defer releaseSearch(s)
	s.build(g)
	s.dist = grown(s.dist, s.n)
	d := s.dist[:s.n]
	var far []float64
	for i, src := range sources {
		s.startDijkstra(src, d)
		s.dijkstra(d, radius, 0)
		if i == 0 {
			far = slices.Clone(d)
		} else {
			for v, x := range d {
				far[v] = max(far[v], x)
			}
		}
		row(i, d)
	}
	return far
}
