package searchgraph

import (
	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// Snapshot is an immutable view of a search graph, published by the writer
// with Graph.Snapshot and shared by any number of concurrent readers. All
// methods are pure reads; per-query mutable state lives in an Overlay.
type Snapshot struct {
	s   *store
	csr func() *steiner.CSR // freezes s's graph on the snapshot's first search, once
}

// Base returns the frozen steiner graph. Callers must treat it as
// read-only; extend it through an Overlay instead.
func (s *Snapshot) Base() *steiner.Graph { return s.s.sg }

// View returns the snapshot's CSR, the base every search over it reads.
func (s *Snapshot) View() *steiner.CSR { return s.csr() }

// Node returns the node with the given id.
func (s *Snapshot) Node(id steiner.NodeID) Node { return s.s.nodes[id] }

// Edge returns the search-graph edge metadata for an edge id.
func (s *Snapshot) Edge(id steiner.EdgeID) Edge { return s.s.edges[id] }

// NumNodes returns the node count.
func (s *Snapshot) NumNodes() int { return len(s.s.nodes) }

// NumEdges returns the edge count.
func (s *Snapshot) NumEdges() int { return len(s.s.edges) }

// Cost returns the frozen cost of a base edge.
func (s *Snapshot) Cost(id steiner.EdgeID) float64 { return s.s.sg.Edge(id).Cost }

// Weights returns the frozen weight vector. Callers must not mutate it.
func (s *Snapshot) Weights() learning.Vector { return s.s.weights }

// LookupRelation returns the relation node id, or -1 if absent.
func (s *Snapshot) LookupRelation(qualified string) steiner.NodeID {
	if id, ok := s.s.relNode[qualified]; ok {
		return id
	}
	return -1
}

// LookupAttribute returns the attribute node id, or -1 if absent.
func (s *Snapshot) LookupAttribute(ref relstore.AttrRef) steiner.NodeID {
	if id, ok := s.s.attrNode[ref]; ok {
		return id
	}
	return -1
}

// AssociationList returns all association edges in id order.
func (s *Snapshot) AssociationList() []Association { return s.s.associationList() }

// Summary computes node/edge counts by kind.
func (s *Snapshot) Summary() Stats { return s.s.summary() }

// NewOverlay returns an empty per-query overlay over the snapshot's CSR.
func (s *Snapshot) NewOverlay() *Overlay {
	return &Overlay{
		snap:    s,
		so:      s.View().NewOverlay(),
		kwNode:  make(map[string]steiner.NodeID),
		valNode: make(map[valueKey]valueNode),
		kwSeen:  make(map[[2]steiner.NodeID]steiner.EdgeID),
	}
}

// Overlay is the query-private extension of a snapshot: the keyword nodes,
// keyword edges and lazily materialised value nodes of one query graph
// (paper §2.2), kept out of the shared base entirely. Node and edge ids
// continue the base id spaces, so Steiner trees computed over the overlay
// reference base edges by their stable ids. An overlay belongs to one query
// (or one view materialisation): it is not safe for concurrent mutation,
// and it dies when the materialisation it supported is replaced.
type Overlay struct {
	snap    *Snapshot
	so      *steiner.Overlay
	nodes   []Node // overlay nodes; id = snap.NumNodes()+i
	edges   []Edge // overlay edges; id = snap.NumEdges()+i
	kwNode  map[string]steiner.NodeID
	valNode map[valueKey]valueNode
	// kwSeen dedups (keyword, target) pairs: a keyword repeated in one query
	// must not produce parallel match edges (they would bloat the k-best
	// list with edge-set-distinct but equivalent trees).
	kwSeen map[[2]steiner.NodeID]steiner.EdgeID
}

type valueKey struct {
	ref   relstore.AttrRef
	value string
}

// valueNode is a value node and its value→attribute edge.
type valueNode struct {
	node steiner.NodeID
	edge steiner.EdgeID
}

// Snapshot returns the snapshot the overlay extends.
func (o *Overlay) Snapshot() *Snapshot { return o.snap }

// View returns the steiner view (snapshot CSR ∪ overlay) to search.
func (o *Overlay) View() *steiner.Overlay { return o.so }

// Node returns the node with the given id, base or overlay.
func (o *Overlay) Node(id steiner.NodeID) Node {
	if int(id) < o.snap.NumNodes() {
		return o.snap.Node(id)
	}
	return o.nodes[int(id)-o.snap.NumNodes()]
}

// Edge returns the edge metadata for an edge id, base or overlay.
func (o *Overlay) Edge(id steiner.EdgeID) Edge {
	if int(id) < o.snap.NumEdges() {
		return o.snap.Edge(id)
	}
	return o.edges[int(id)-o.snap.NumEdges()]
}

// Endpoints returns the two endpoint node ids of an edge.
func (o *Overlay) Endpoints(id steiner.EdgeID) (steiner.NodeID, steiner.NodeID) {
	e := o.so.Edge(id)
	return e.U, e.V
}

// Cost returns the current cost of an edge, base or overlay.
func (o *Overlay) Cost(id steiner.EdgeID) float64 { return o.so.Edge(id).Cost }

// KeywordEdges returns the overlay's keyword edges in creation order (the
// learnable per-query edges a feedback update must keep positive).
func (o *Overlay) KeywordEdges() []Edge {
	out := make([]Edge, 0, len(o.edges))
	for _, e := range o.edges {
		if e.Kind == EdgeKeyword {
			out = append(out, e)
		}
	}
	return out
}

// KeywordNode returns (and creates if needed) the overlay node for a query
// keyword.
func (o *Overlay) KeywordNode(keyword string) steiner.NodeID {
	if id, ok := o.kwNode[keyword]; ok {
		return id
	}
	id := o.so.AddNode()
	o.nodes = append(o.nodes, Node{ID: id, Kind: KindKeyword, Value: keyword})
	o.kwNode[keyword] = id
	return id
}

// ValueNode returns (and creates if needed) the overlay node for a data
// value, wiring the fixed zero-cost value↔attribute edge on creation
// (paper §2.1: "for efficiency reasons we will add tuple nodes as
// needed"). It returns -1 when the owning attribute is unknown to the
// snapshot (a catalog/graph mismatch the caller should skip).
func (o *Overlay) ValueNode(ref relstore.AttrRef, value string) steiner.NodeID {
	k := valueKey{ref: ref, value: value}
	if v, ok := o.valNode[k]; ok {
		return v.node
	}
	attr := o.snap.LookupAttribute(ref)
	if attr < 0 {
		return -1
	}
	id := o.so.AddNode()
	o.nodes = append(o.nodes, Node{ID: id, Kind: KindValue, Ref: ref, Value: value})
	eid := o.so.AddEdge(id, attr, 0)
	o.edges = append(o.edges, Edge{ID: eid, Kind: EdgeValueAttr, Fixed: true})
	o.valNode[k] = valueNode{id, eid}
	return id
}

// AddKeywordEdge links a keyword node to a target node (either may be base
// or overlay) with a learnable keyword-match edge. sim is the keyword
// similarity score s_i (higher is better, clamped to [0,1]); it enters the
// cost as a mismatch feature (1 − sim), so closer matches cost less under a
// positive weight. Each keyword edge carries its own indicator feature —
// the per-edge adjustable weights w_2, w_3, … of Figure 3 — so feedback can
// promote or suppress one keyword match without touching the others.
// Keyword edges deliberately do NOT share the global "default" feature:
// that would let the learner inflate all keyword costs at once, destroying
// the tight α radii VIEWBASEDALIGNER's pruning relies on (§3.3).
//
// The indicator weight is not written into the shared weight vector: when
// the snapshot's weights carry no learned value for it yet,
// KwEdgeBaseWeight enters the cost directly. A feedback update that touches
// the edge seeds the weight for real (see core's learner), so learned
// promotions and suppressions survive; until then every query prices the
// edge identically without writing anywhere.
func (o *Overlay) AddKeywordEdge(kw, target steiner.NodeID, sim float64) steiner.EdgeID {
	if id, ok := o.kwSeen[[2]steiner.NodeID{kw, target}]; ok {
		return id
	}
	if sim < 0 {
		sim = 0
	}
	if sim > 1 {
		sim = 1
	}
	edgeFeat := "edge:kw:" + o.Node(kw).Value + "->" + o.Node(target).Label()
	f := learning.Vector{
		"mismatch": 1 - sim,
		edgeFeat:   1,
	}
	w := o.snap.s.weights
	c := w.Dot(f)
	if _, ok := w[edgeFeat]; !ok {
		c += KwEdgeBaseWeight
	}
	eid := o.so.AddEdge(kw, target, quantiseCost(c))
	o.edges = append(o.edges, Edge{ID: eid, Kind: EdgeKeyword, Features: f})
	o.kwSeen[[2]steiner.NodeID{kw, target}] = eid
	return eid
}

// Reprice maps a tree of prev — an overlay of an earlier generation, one
// this overlay's snapshot descends from — into this overlay, and returns
// the tree's cost here: its mapped edges' costs summed in the order given.
// It reports false when some edge has no counterpart here. A base edge maps
// by id (base ids only grow) once its endpoints are checked to match; a
// keyword edge maps by (keyword, target) and a value→attribute edge by
// (attribute, value), the keys this overlay's expansion dedups on. It only
// reads both overlays.
func (o *Overlay) Reprice(prev *Overlay, edges []steiner.EdgeID) (float64, bool) {
	cost := 0.0
	for _, id := range edges {
		to, ok := o.mapEdge(prev, id)
		if !ok {
			return 0, false
		}
		cost += o.Cost(to)
	}
	return cost, true
}

// mapEdge returns the edge of o that edge id of prev maps to (see Reprice).
func (o *Overlay) mapEdge(prev *Overlay, id steiner.EdgeID) (steiner.EdgeID, bool) {
	pe := prev.so.Edge(id)
	if int(id) < prev.snap.NumEdges() {
		if int(id) >= o.snap.NumEdges() {
			return 0, false
		}
		e := o.so.Edge(id)
		return id, e.U == pe.U && e.V == pe.V
	}
	switch prev.Edge(id).Kind {
	case EdgeKeyword: // AddKeywordEdge's (keyword, target)
		kw, ok := o.kwNode[prev.Node(pe.U).Value]
		if !ok {
			return 0, false
		}
		target, ok := o.mapNode(prev, pe.V)
		if !ok {
			return 0, false
		}
		to, ok := o.kwSeen[[2]steiner.NodeID{kw, target}]
		return to, ok
	case EdgeValueAttr: // ValueNode's (value node, attribute)
		n := prev.Node(pe.U)
		v, ok := o.valNode[valueKey{ref: n.Ref, value: n.Value}]
		return v.edge, ok
	}
	return 0, false
}

// mapNode returns the node of o that a keyword edge's target in prev maps
// to: a base node keeps its id, a value node maps by (attribute, value).
func (o *Overlay) mapNode(prev *Overlay, id steiner.NodeID) (steiner.NodeID, bool) {
	if int(id) < prev.snap.NumNodes() {
		return id, int(id) < o.snap.NumNodes()
	}
	n := prev.Node(id)
	if n.Kind != KindValue {
		return 0, false
	}
	v, ok := o.valNode[valueKey{ref: n.Ref, value: n.Value}]
	return v.node, ok
}
