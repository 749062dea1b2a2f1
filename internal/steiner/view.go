package steiner

import "fmt"

// GraphView is the read interface the Steiner algorithms run against. Both
// *Graph and *Overlay implement it, so view construction can work over an
// immutable base graph extended with per-query nodes and edges without ever
// mutating the base (Q's copy-on-write search-graph snapshots depend on
// this: many queries traverse one shared base concurrently, each through its
// own private overlay).
type GraphView interface {
	// NumNodes returns the number of nodes (base plus overlay).
	NumNodes() int
	// NumEdges returns the number of edges (base plus overlay).
	NumEdges() int
	// Incident returns the ids of edges incident to v. Callers must not
	// mutate the returned slice.
	Incident(v NodeID) []EdgeID
	// Edge returns the edge with the given id.
	Edge(id EdgeID) Edge
	// Other returns the endpoint of the edge that is not v.
	Other(id EdgeID, v NodeID) NodeID
}

var (
	_ GraphView = (*Graph)(nil)
	_ GraphView = (*Overlay)(nil)
)

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

// Overlay extends an immutable base graph with extra nodes and edges. Ids
// continue the base's id spaces: overlay node i is NodeID(base.NumNodes()+i)
// and overlay edge j is EdgeID(base.NumEdges()+j), so base ids stay valid in
// trees computed over the view. The base must not be mutated while the
// overlay is alive. Construction (AddNode/AddEdge/SetCost) belongs to one
// goroutine; once built, every method is a pure read, so any number of
// goroutines may run searches over the same overlay concurrently (Q's
// retained view materialisations depend on this: lock-free k-best pages
// and writer-side feedback traverse one shared overlay).
type Overlay struct {
	base       *Graph
	baseNodes  int
	baseEdges  int
	extraNodes int
	extraEdges []Edge
	// overlayAdj holds incident lists for overlay NODES; merged holds the
	// full base+overlay incident list of every base node that gained an
	// overlay edge. Both are maintained eagerly by AddEdge, so Incident
	// never mutates the overlay.
	overlayAdj map[NodeID][]EdgeID
	merged     map[NodeID][]EdgeID
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{
		base:       base,
		baseNodes:  base.NumNodes(),
		baseEdges:  base.NumEdges(),
		overlayAdj: make(map[NodeID][]EdgeID),
		merged:     make(map[NodeID][]EdgeID),
	}
}

// Base returns the base graph the overlay extends.
func (o *Overlay) Base() *Graph { return o.base }

// AddNode creates an overlay node and returns its id.
func (o *Overlay) AddNode() NodeID {
	id := NodeID(o.baseNodes + o.extraNodes)
	o.extraNodes++
	return id
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
	id := EdgeID(o.baseEdges + len(o.extraEdges))
	o.extraEdges = append(o.extraEdges, Edge{ID: id, U: u, V: v, Cost: cost})
	o.noteIncident(u, id)
	if v != u {
		o.noteIncident(v, id)
	}
	return id
}

// noteIncident records an overlay edge in its endpoint's incident list —
// the overlay-node list, or the eagerly merged base+overlay list.
func (o *Overlay) noteIncident(v NodeID, id EdgeID) {
	if int(v) >= o.baseNodes {
		o.overlayAdj[v] = append(o.overlayAdj[v], id)
		return
	}
	m, ok := o.merged[v]
	if !ok {
		m = append([]EdgeID(nil), o.base.Incident(v)...)
	}
	o.merged[v] = append(m, id)
}

// SetCost updates an overlay edge's cost. Base edges are immutable through
// the overlay; attempting to re-cost one panics.
func (o *Overlay) SetCost(id EdgeID, cost float64) {
	if int(id) < o.baseEdges {
		panic(fmt.Sprintf("steiner: overlay SetCost on base edge %d", id))
	}
	if cost < 0 {
		panic(fmt.Sprintf("steiner: negative overlay edge cost %v", cost))
	}
	o.extraEdges[int(id)-o.baseEdges].Cost = cost
}

// NumNodes returns the total node count (base plus overlay).
func (o *Overlay) NumNodes() int { return o.baseNodes + o.extraNodes }

// NumEdges returns the total edge count (base plus overlay).
func (o *Overlay) NumEdges() int { return o.baseEdges + len(o.extraEdges) }

// Edge returns the edge with the given id, base or overlay.
func (o *Overlay) Edge(id EdgeID) Edge {
	if int(id) < o.baseEdges {
		return o.base.Edge(id)
	}
	return o.extraEdges[int(id)-o.baseEdges]
}

// Other returns the endpoint of edge id that is not v.
func (o *Overlay) Other(id EdgeID, v NodeID) NodeID {
	e := o.Edge(id)
	if e.U == v {
		return e.V
	}
	return e.U
}

// Incident returns the edges incident to v across base and overlay. It is
// a pure read (the merged lists are maintained at AddEdge time), so
// concurrent searches over one frozen overlay are safe.
func (o *Overlay) Incident(v NodeID) []EdgeID {
	if int(v) >= o.baseNodes {
		return o.overlayAdj[v]
	}
	if m, ok := o.merged[v]; ok {
		return m
	}
	return o.base.Incident(v)
}
