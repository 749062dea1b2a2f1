// Package steiner provides the weighted-graph machinery behind Q's ranked
// keyword views: an undirected graph with mutable edge costs, Dijkstra
// shortest paths and α-cost neighbourhoods (the pruning region of
// VIEWBASEDALIGNER, paper §3.3) and an exact top-k group Steiner tree
// algorithm (DPBF dynamic programming with k-best lists per state) for up to
// MaxExactTerminals terminals.
package steiner

import (
	"fmt"
	"slices"
)

// NodeID indexes a node within a Graph.
type NodeID int

// EdgeID indexes an edge within a Graph.
type EdgeID int

// Edge is one undirected, non-negatively weighted edge.
type Edge struct {
	ID   EdgeID
	U, V NodeID
	Cost float64
}

// Graph is an undirected multigraph with non-negative edge costs. Costs are
// mutable (SetCost) because Q's learner continually re-weights edges; the
// topology is append-only.
type Graph struct {
	edges []Edge
	adj   [][]EdgeID // per node, incident edge ids
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddNode creates a node and returns its id.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Grow makes room for n more edges, so that adding them does not copy the
// edge list again and again.
func (g *Graph) Grow(n int) { g.edges = slices.Grow(g.edges, n) }

// AddEdge inserts an undirected edge between u and v with the given cost and
// returns its id. It panics on out-of-range nodes or negative cost — both
// indicate programmer error, not runtime conditions.
func (g *Graph) AddEdge(u, v NodeID, cost float64) EdgeID {
	if int(u) >= len(g.adj) || int(v) >= len(g.adj) || u < 0 || v < 0 {
		panic(fmt.Sprintf("steiner: AddEdge(%d,%d) out of range (n=%d)", u, v, len(g.adj)))
	}
	if cost < 0 {
		panic(fmt.Sprintf("steiner: negative edge cost %v", cost))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, U: u, V: v, Cost: cost})
	g.adj[u] = append(g.adj[u], id)
	if v != u {
		g.adj[v] = append(g.adj[v], id)
	}
	return id
}

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// SetCost updates an edge's cost. Negative costs panic: Q's learner pins
// costs positive (Algorithm 4 constraint w·f > 0) precisely because Steiner
// computation requires it.
func (g *Graph) SetCost(id EdgeID, cost float64) {
	if cost < 0 {
		panic(fmt.Sprintf("steiner: negative edge cost %v for edge %d", cost, id))
	}
	g.edges[id].Cost = cost
}

// Incident returns the ids of edges incident to v. Callers must not mutate
// the returned slice.
func (g *Graph) Incident(v NodeID) []EdgeID { return g.adj[v] }

// other returns the endpoint of e that is not v (for self-loops, v).
func other(e Edge, v NodeID) NodeID {
	if e.U == v {
		return e.V
	}
	return e.U
}

// Degree returns the number of incident edges of v.
func (g *Graph) Degree(v NodeID) int { return len(g.adj[v]) }
