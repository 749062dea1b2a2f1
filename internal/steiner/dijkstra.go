package steiner

import "math"

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
// per-keyword neighbourhoods; the intersection preserves its same-top-k
// guarantee while pruning far more aggressively on large graphs.
//
// It runs one Dijkstra per source over a retained search's view of g, each
// only as far as alpha, into its distance table, folding each row into
// the farthest source's distance per node. A node farther than alpha from a
// source holds some value above alpha in that source's row, which decides
// its membership as its exact distance would.
func NeighborhoodIntersectOn(g GraphView, sources []NodeID, alpha float64) map[NodeID]struct{} {
	if len(sources) == 0 {
		return make(map[NodeID]struct{})
	}
	s := acquireSearch()
	defer releaseSearch(s)
	s.build(g)
	n := s.n
	s.dist = grown(s.dist, 2*n)
	row, fold := s.dist[:n], s.dist[n:]
	s.startDijkstra(sources[0], fold)
	s.dijkstra(fold, alpha, 0)
	for _, src := range sources[1:] {
		s.startDijkstra(src, row)
		s.dijkstra(row, alpha, 0)
		for v, d := range row {
			fold[v] = max(fold[v], d)
		}
	}
	out := make(map[NodeID]struct{})
	for v, d := range fold {
		if d <= alpha {
			out[NodeID(v)] = struct{}{}
		}
	}
	return out
}
