package steiner

import "math"

// Dist holds single-source shortest-path results. Unreachable nodes have
// distance +Inf and Prev == -1.
type Dist struct {
	D    []float64
	Prev []EdgeID // edge used to reach the node; -1 for source/unreachable
}

// Dijkstra computes shortest path costs from src to every node.
func (g *Graph) Dijkstra(src NodeID) Dist { return DijkstraOn(g, src) }

// DijkstraOn computes shortest path costs from src to every node of an
// arbitrary graph view (base graph or base∪overlay).
func DijkstraOn(g GraphView, src NodeID) Dist {
	n := g.NumNodes()
	d := Dist{D: make([]float64, n), Prev: make([]EdgeID, n)}
	pq := minHeap[nodeItem]{less: nodeItemLess}
	dijkstraInto(g, src, d.D, d.Prev, &pq)
	return d
}

// dijkstraInto is the package's one Dijkstra loop. It writes src's
// shortest-path cost to every node into d (+Inf when unreachable) and, when
// prev is non-nil, the edge each node is reached by (-1 for src and
// unreachable nodes). Both have g.NumNodes() entries; pq is the queue's
// storage, reused across calls.
func dijkstraInto(g GraphView, src NodeID, d []float64, prev []EdgeID, pq *minHeap[nodeItem]) {
	inf := math.Inf(1)
	for i := range d {
		d[i] = inf
	}
	for i := range prev {
		prev[i] = -1
	}
	d[src] = 0
	pq.Reset()
	pq.Push(nodeItem{node: src, cost: 0})
	for pq.Len() > 0 {
		it := pq.Pop()
		if it.cost > d[it.node] {
			continue
		}
		for _, eid := range g.Incident(it.node) {
			e := g.Edge(eid)
			to := e.U // g.Other(eid, it.node), without a second edge lookup
			if to == it.node {
				to = e.V
			}
			nd := it.cost + e.Cost
			if nd < d[to] {
				d[to] = nd
				if prev != nil {
					prev[to] = eid
				}
				pq.Push(nodeItem{node: to, cost: nd})
			}
		}
	}
}

// PathTo reconstructs the edges of the shortest path from the Dijkstra
// source to node v (in reverse order of traversal). Returns nil when v is
// the source or unreachable.
func (g *Graph) PathTo(d Dist, v NodeID) []EdgeID { return PathToOn(g, d, v) }

// PathToOn is PathTo over an arbitrary graph view.
func PathToOn(g GraphView, d Dist, v NodeID) []EdgeID {
	if math.IsInf(d.D[v], 1) {
		return nil
	}
	var path []EdgeID
	for d.Prev[v] != -1 {
		eid := d.Prev[v]
		path = append(path, eid)
		v = g.Other(eid, v)
	}
	return path
}

// Neighborhood returns the set of nodes whose shortest-path distance from
// any of the given source nodes is at most alpha. This is the α-cost
// neighbourhood GETCOSTNEIGHBORHOOD of Algorithm 2: any new-source node that
// could join a Steiner tree of cost ≤ α must align with a node inside it.
func (g *Graph) Neighborhood(sources []NodeID, alpha float64) map[NodeID]struct{} {
	return NeighborhoodOn(g, sources, alpha)
}

// NeighborhoodOn is Neighborhood over an arbitrary graph view.
func NeighborhoodOn(g GraphView, sources []NodeID, alpha float64) map[NodeID]struct{} {
	return neighborhood(g, sources, alpha, false)
}

// NeighborhoodIntersect returns the nodes within alpha of EVERY source — a
// strictly tighter (and still sound) pruning region than Neighborhood:
// every node of a Steiner tree of cost ≤ α lies, along tree paths of cost
// ≤ α, within distance α of each terminal, so any node that could join
// such a tree is in the intersection. Algorithm 2 as written unions
// per-keyword neighbourhoods; the intersection refinement preserves its
// same-top-k guarantee while pruning far more aggressively on large graphs.
func (g *Graph) NeighborhoodIntersect(sources []NodeID, alpha float64) map[NodeID]struct{} {
	return NeighborhoodIntersectOn(g, sources, alpha)
}

// NeighborhoodIntersectOn is NeighborhoodIntersect over an arbitrary view.
func NeighborhoodIntersectOn(g GraphView, sources []NodeID, alpha float64) map[NodeID]struct{} {
	return neighborhood(g, sources, alpha, true)
}

// neighborhood returns the nodes within alpha of every source (all) or of
// some source. It runs one Dijkstra per source into a retained search's
// distance table, folding each row into the farthest (all) or nearest
// source's distance per node.
func neighborhood(g GraphView, sources []NodeID, alpha float64, all bool) map[NodeID]struct{} {
	if len(sources) == 0 {
		return make(map[NodeID]struct{})
	}
	s := acquireSearch()
	defer releaseSearch(s)
	n := g.NumNodes()
	s.dist = grown(s.dist, 2*n)
	row, fold := s.dist[:n], s.dist[n:]
	dijkstraInto(g, sources[0], fold, nil, &s.dq)
	for _, src := range sources[1:] {
		dijkstraInto(g, src, row, nil, &s.dq)
		for v, d := range row {
			if all {
				fold[v] = max(fold[v], d)
			} else {
				fold[v] = min(fold[v], d)
			}
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

type nodeItem struct {
	node NodeID
	cost float64
}

func nodeItemLess(a, b *nodeItem) bool { return a.cost < b.cost }
