package steiner

import (
	"cmp"
	"fmt"
	"slices"
)

// GraphView is what the searches run over: a *CSR, which any number of
// searches share and none copies, an *Overlay extending one with per-query
// nodes and edges, or a bare *Graph, which each search freezes for itself.
type GraphView interface {
	// Edge returns the edge with the given id.
	Edge(id EdgeID) Edge
	// frozen returns the view's base CSR and its overlay nodes and edges.
	frozen() (c *CSR, extraNodes int, extraEdges []Edge)
}

// Clone returns a deep-enough copy of the graph for copy-on-write use: the
// edge slice (whose costs SetCost mutates) and the outer adjacency slice
// (whose inner headers AddEdge replaces) are copied, while the inner
// adjacency arrays are shared — appends on the clone only ever write at
// indexes beyond every older header's length, so frozen readers of the
// original never observe them.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		edges: append([]Edge(nil), g.edges...),
		adj:   append([][]EdgeID(nil), g.adj...),
	}
	return ng
}

// arc is one incident edge of a node: the other endpoint, the edge, its cost.
type arc struct {
	to   int32
	edge int32
	cost float64
}

// CSR is an immutable compressed-sparse-row copy of a graph's adjacency:
// node v's arcs are arcs[off[v]:off[v+1]], priced when the graph was frozen
// and in cmpArcs order, the order the top-k search extends a tree at v in.
type CSR struct {
	edges []Edge // the frozen graph's edges, by id
	off   []int32
	arcs  []arc
}

// Freeze returns the CSR of g as it is now. The CSR shares g's edge list,
// so g must not be re-costed (SetCost) while the CSR is in use; adding
// nodes and edges to g is safe, and invisible to the CSR.
func (g *Graph) Freeze() *CSR {
	c := &CSR{edges: g.edges[:len(g.edges):len(g.edges)], off: make([]int32, 1, len(g.adj)+1),
		arcs: make([]arc, 0, 2*len(g.edges))}
	for v, inc := range g.adj {
		for _, eid := range inc {
			e := g.edges[eid]
			c.arcs = append(c.arcs, arc{to: int32(other(e, NodeID(v))), edge: int32(eid), cost: e.Cost})
		}
		slices.SortFunc(c.arcs[c.off[v]:], cmpArcs)
		c.off = append(c.off, int32(len(c.arcs)))
	}
	return c
}

// Edge returns the edge with the given id.
func (c *CSR) Edge(id EdgeID) Edge { return c.edges[id] }

func (c *CSR) frozen() (*CSR, int, []Edge) { return c, 0, nil }

func (c *CSR) numNodes() int { return len(c.off) - 1 }

func (g *Graph) frozen() (*CSR, int, []Edge) { return g.Freeze(), 0, nil }

// Overlay extends an immutable CSR with extra nodes and edges, numbered on
// from the base's, so base ids stay valid in trees computed over the view.
// Construction (AddNode/AddEdge) belongs to one goroutine; once built, any
// number of goroutines may search the overlay concurrently (Q's retained
// view materialisations do), each laying its arcs out in its own scratch.
type Overlay struct {
	base       *CSR
	extraNodes int
	extraEdges []Edge
}

// NewOverlay returns an empty overlay over c.
func (c *CSR) NewOverlay() *Overlay { return &Overlay{base: c} }

// AddNode creates an overlay node and returns its id.
func (o *Overlay) AddNode() NodeID {
	o.extraNodes++
	return NodeID(o.NumNodes() - 1)
}

// AddEdge inserts an undirected overlay edge between u and v (either may be
// a base or overlay node) and returns its id.
func (o *Overlay) AddEdge(u, v NodeID, cost float64) EdgeID {
	if int(u) >= o.NumNodes() || int(v) >= o.NumNodes() || u < 0 || v < 0 {
		panic(fmt.Sprintf("steiner: overlay AddEdge(%d,%d) out of range (n=%d)", u, v, o.NumNodes()))
	}
	if cost < 0 {
		panic(fmt.Sprintf("steiner: negative overlay edge cost %v", cost))
	}
	id := EdgeID(o.NumEdges())
	o.extraEdges = append(o.extraEdges, Edge{ID: id, U: u, V: v, Cost: cost})
	return id
}

// NumNodes returns the total node count (base plus overlay).
func (o *Overlay) NumNodes() int { return o.base.numNodes() + o.extraNodes }

// NumEdges returns the total edge count (base plus overlay).
func (o *Overlay) NumEdges() int { return len(o.base.edges) + len(o.extraEdges) }

// Edge returns the edge with the given id, base or overlay.
func (o *Overlay) Edge(id EdgeID) Edge {
	if nb := len(o.base.edges); int(id) >= nb {
		return o.extraEdges[int(id)-nb]
	}
	return o.base.edges[id]
}

func (o *Overlay) frozen() (*CSR, int, []Edge) { return o.base, o.extraNodes, o.extraEdges }

// build points the search at g: its base CSR, read in place, and the delta
// in the search's scratch — the arcs of each overlay node and of each base
// node an overlay edge touches, with its CSR arcs — in cmpArcs order.
func (s *search) build(g GraphView) {
	c, extra, edges := g.frozen()
	s.base, s.n, s.delta = c, c.numNodes()+extra, s.delta[:0]
	// Until an overlay edge touches it, a base node reads the CSR ({-1, -1})
	// and an overlay node has no arcs.
	s.span = grown(s.span, s.n)
	for v := range s.span {
		s.span[v] = [2]int32{-1, -1}
	}
	clear(s.span[c.numNodes():])
	for _, e := range edges {
		s.collect(e.U, e)
		if e.V != e.U {
			s.collect(e.V, e)
		}
	}
	// A collected arc's to is the node whose list it joins, until the sort
	// has grouped the lists; then it is set to the far end.
	slices.SortFunc(s.delta, func(a, b arc) int { return cmp.Or(cmp.Compare(a.to, b.to), cmpArcs(a, b)) })
	owner := int32(-1)
	for i := range s.delta {
		a := &s.delta[i]
		if a.to != owner {
			owner = a.to
			s.span[owner][0] = int32(i)
		}
		s.span[owner][1] = int32(i) + 1
		a.to = int32(other(g.Edge(EdgeID(a.edge)), NodeID(owner)))
	}
}

// collect adds v's arc across overlay edge e to the delta, keyed by v, and
// v's CSR arcs with it when v is a base node e is the first to touch.
func (s *search) collect(v NodeID, e Edge) {
	if s.span[v][0] < 0 {
		s.span[v] = [2]int32{}
		for _, a := range s.base.arcs[s.base.off[v]:s.base.off[v+1]] {
			s.delta = appendPow2(s.delta, arc{to: int32(v), edge: a.edge, cost: a.cost})
		}
	}
	s.delta = appendPow2(s.delta, arc{to: int32(v), edge: int32(e.ID), cost: e.Cost})
}

// arcs returns v's arcs, in cmpArcs order, and the number of the first in
// the search's arc numbering: the base CSR's arcs, then the delta's.
func (s *search) arcs(v int32) ([]arc, int32) {
	if sp := s.span[v]; sp[0] >= 0 {
		return s.delta[sp[0]:sp[1]], int32(len(s.base.arcs)) + sp[0]
	}
	lo, hi := s.base.off[v], s.base.off[v+1]
	return s.base.arcs[lo:hi], lo
}

// arc returns the arc numbered i.
func (s *search) arc(i int32) *arc {
	if nb := int32(len(s.base.arcs)); i >= nb {
		return &s.delta[i-nb]
	}
	return &s.base.arcs[i]
}
