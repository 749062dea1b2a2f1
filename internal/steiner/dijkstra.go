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
	for i := range d.D {
		d.D[i] = math.Inf(1)
		d.Prev[i] = -1
	}
	d.D[src] = 0
	pq := minHeap[nodeItem]{less: nodeItemLess}
	pq.Push(nodeItem{node: src, cost: 0})
	for pq.Len() > 0 {
		it := pq.Pop()
		if it.cost > d.D[it.node] {
			continue
		}
		for _, eid := range g.Incident(it.node) {
			e := g.Edge(eid)
			to := g.Other(eid, it.node)
			nd := it.cost + e.Cost
			if nd < d.D[to] {
				d.D[to] = nd
				d.Prev[to] = eid
				pq.Push(nodeItem{node: to, cost: nd})
			}
		}
	}
	return d
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
	out := make(map[NodeID]struct{})
	for _, s := range sources {
		d := DijkstraOn(g, s)
		for v, dist := range d.D {
			if dist <= alpha {
				out[NodeID(v)] = struct{}{}
			}
		}
	}
	return out
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
	out := make(map[NodeID]struct{})
	for i, s := range sources {
		d := DijkstraOn(g, s)
		if i == 0 {
			for v, dist := range d.D {
				if dist <= alpha {
					out[NodeID(v)] = struct{}{}
				}
			}
			continue
		}
		for v := range out {
			if d.D[v] > alpha {
				delete(out, v)
			}
		}
	}
	return out
}

type nodeItem struct {
	node NodeID
	cost float64
}

func nodeItemLess(a, b *nodeItem) bool { return a.cost < b.cost }
