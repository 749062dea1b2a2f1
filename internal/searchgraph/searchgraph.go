// Package searchgraph implements Q's unified data model (paper §2.1, §3.1):
// a graph whose nodes are relations, attributes, data values and query
// keywords, and whose edges carry sparse feature vectors from which costs
// are derived as cost = w·f (Equation 1). Zero-cost structural edges
// (attribute↔relation, value↔attribute) are pinned; foreign-key and
// association edges are learnable; keyword edges are added per query.
//
// # Snapshots and overlays
//
// The graph is copy-on-write. A writer owns a *Graph (the builder) and
// mutates it freely; Snapshot returns an immutable view of the current
// state, sharing the underlying storage at zero copy cost. The first
// mutation after a snapshot clones the storage (O(V+E), paid once per write
// burst), so every published snapshot stays frozen forever and any number
// of readers can traverse it without locks. A snapshot's identity is its
// pointer: Snapshot returns the same one until the graph changes.
//
// Per-query state — keyword nodes, keyword edges and lazily materialised
// value nodes — never enters the base graph at all. A query builds an
// Overlay on top of a Snapshot and runs Steiner search over the combined
// base∪overlay view; the overlay dies with the query. This is what lets
// independent queries run fully concurrently: they share the frozen base,
// searched through the snapshot's one CSR, and write only their overlays.
package searchgraph

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// NodeKind classifies search-graph nodes.
type NodeKind int

const (
	// KindRelation nodes represent tables (rounded rectangles in Fig. 2).
	KindRelation NodeKind = iota
	// KindAttribute nodes represent columns (ellipses in Fig. 2).
	KindAttribute
	// KindValue nodes represent individual data values, materialised lazily
	// during query-graph expansion.
	KindValue
	// KindKeyword nodes represent query keywords (bold italics in Fig. 3).
	KindKeyword
)

// String names the kind for logs.
func (k NodeKind) String() string {
	switch k {
	case KindRelation:
		return "relation"
	case KindAttribute:
		return "attribute"
	case KindValue:
		return "value"
	default:
		return "keyword"
	}
}

// EdgeKind classifies search-graph edges.
type EdgeKind int

const (
	// EdgeAttrRel links an attribute to its relation at fixed zero cost.
	EdgeAttrRel EdgeKind = iota
	// EdgeForeignKey links two relations joined by a declared foreign key,
	// initialised to the default foreign-key cost.
	EdgeForeignKey
	// EdgeAssociation links two attributes proposed as aligned by a schema
	// matcher (or hand-coded).
	EdgeAssociation
	// EdgeKeyword links a keyword node to a matching schema element or value.
	EdgeKeyword
	// EdgeValueAttr links a value node to its attribute at fixed zero cost.
	EdgeValueAttr
)

// String names the edge kind for logs.
func (k EdgeKind) String() string {
	switch k {
	case EdgeAttrRel:
		return "attr-rel"
	case EdgeForeignKey:
		return "foreign-key"
	case EdgeAssociation:
		return "association"
	case EdgeKeyword:
		return "keyword"
	case EdgeValueAttr:
		return "value-attr"
	default:
		return "edge-kind-" + strconv.Itoa(int(k))
	}
}

// Node is one search-graph node. Exactly one of the payload fields is
// meaningful depending on Kind.
type Node struct {
	ID    steiner.NodeID
	Kind  NodeKind
	Rel   string           // KindRelation: qualified relation name
	Ref   relstore.AttrRef // KindAttribute / KindValue: owning attribute
	Value string           // KindValue: the value; KindKeyword: the keyword
}

// Label returns a human-readable node label.
func (n Node) Label() string {
	switch n.Kind {
	case KindRelation:
		return n.Rel
	case KindAttribute:
		return n.Ref.String()
	case KindValue:
		return n.Ref.String() + "=" + n.Value
	default:
		return "kw:" + n.Value
	}
}

// Edge is one search-graph edge with its learnable feature vector.
//
// The builder also keeps each learnable base edge's (foreign key or
// association) features interned, beside the edge: made once, when the
// builder makes, merges, restores or loads the edge, as (id, value) entries
// in feature-name order over the builder's dictionary, with ‖f‖². The
// builder prices the edge and a feedback update states the edge's
// positivity constraint from them, so neither walks the Features map.
// Features stays the edge's exported, persisted form, and the entries
// always render back to it. Overlay keyword edges are not interned.
type Edge struct {
	ID       steiner.EdgeID
	Kind     EdgeKind
	Features learning.Vector // nil for fixed zero-cost edges
	Fixed    bool            // pinned at zero cost (set A in Algorithm 4)
	// A and B carry the joined attribute pair for EdgeForeignKey and
	// EdgeAssociation edges; query generation turns them into equi-join
	// conditions.
	A, B relstore.AttrRef
}

// MinEdgeCost is the floor applied to learnable edge costs so Steiner-tree
// computation stays meaningful even if the learner drives a weight
// combination to (or below) zero mid-update.
const MinEdgeCost = 1e-6

// store is the copy-on-write storage shared between a builder Graph and the
// snapshots taken from it. A store referenced by any snapshot is frozen; the
// builder clones it before the next mutation.
type store struct {
	sg *steiner.Graph

	nodes []Node
	edges []Edge
	// interned holds, per edge id, a learnable edge's Features over the
	// builder's dictionary (Graph.dict); nil for a fixed edge.
	interned []*learning.Interned

	relNode  map[string]steiner.NodeID
	attrNode map[relstore.AttrRef]steiner.NodeID

	weights learning.Vector
}

// clone copies the store for copy-on-write. Slices of structs are copied
// (costs and feature pointers mutate element-wise); the steiner adjacency
// lists are shared, which is safe because appends on the newest store only
// ever write beyond every frozen header's length. Feature maps and interned
// features are shared too: edge-feature merges replace them rather than
// mutating them in place.
func (s *store) clone() *store {
	return &store{
		sg:       s.sg.Clone(),
		nodes:    append([]Node(nil), s.nodes...),
		edges:    append([]Edge(nil), s.edges...),
		interned: append([]*learning.Interned(nil), s.interned...),
		relNode:  maps.Clone(s.relNode),
		attrNode: maps.Clone(s.attrNode),
		weights:  s.weights.Clone(),
	}
}

// Graph is the search graph builder, owned by the single writer. It owns an
// underlying steiner.Graph whose edge costs it keeps synchronised with the
// current weight vector. Readers never touch a Graph: they take a Snapshot
// and, per query, an Overlay.
type Graph struct {
	s          *store
	owned      bool      // s is not referenced by any snapshot
	snap       *Snapshot // cached snapshot of the current state
	staleCosts bool      // weights changed by ApplyWeightDelta, or pricing deferred, since the last pricing

	// dict names the ids of every interned edge feature. It is the
	// builder's alone — snapshots, overlays and queries never read it — and
	// append-only, so a Reset keeps it: a rolled-back edge's names stay
	// interned, unused.
	dict learning.Dict
	// dense is reprice's scratch: the weights, dense over dict.
	dense []float64
}

// New returns an empty search graph with the given initial weights. The
// weight vector is cloned; use SetWeights to replace it later.
func New(weights learning.Vector) *Graph {
	if weights == nil {
		weights = learning.Vector{}
	}
	return &Graph{
		s: &store{
			sg:       steiner.NewGraph(),
			relNode:  make(map[string]steiner.NodeID),
			attrNode: make(map[relstore.AttrRef]steiner.NodeID),
			weights:  weights.Clone(),
		},
		owned: true,
	}
}

// own makes the builder the sole owner of its storage, cloning it if any
// snapshot still references it. Every mutator calls it first.
func (g *Graph) own() {
	if g.owned {
		return
	}
	g.s = g.s.clone()
	g.owned = true
	g.snap = nil
}

// Reset returns the builder to a snapshot taken from it, discarding every
// mutation since — a refused write's rollback. The next mutation clones
// again, so the snapshot stays frozen.
func (g *Graph) Reset(s *Snapshot) {
	g.s = s.s
	g.snap = s
	g.owned = false
	g.staleCosts = false
}

// Snapshot returns an immutable view of the current graph state. Taking a
// snapshot is O(1): it freezes the current storage (the next mutation pays
// one O(V+E) clone) and is cached until the graph changes, so repeated
// publishes of an unchanged graph return the same pointer.
func (g *Graph) Snapshot() *Snapshot {
	if g.snap == nil {
		g.snap = &Snapshot{s: g.s, csr: sync.OnceValue(g.s.sg.Freeze)}
	}
	g.owned = false
	return g.snap
}

// Weights returns the current weight vector (not a copy; do not mutate).
func (g *Graph) Weights() learning.Vector { return g.s.weights }

// SetWeights replaces the weight vector and recomputes every learnable edge
// cost.
func (g *Graph) SetWeights(w learning.Vector) {
	g.own()
	g.s.weights = w.Clone()
	g.reprice()
}

// reprice recomputes every learnable edge cost from its interned features
// against a dense copy of the weights; callers hold ownership. Fixed edges
// cost zero from the start and keep it.
func (g *Graph) reprice() {
	g.dense = g.dict.Dense(g.s.weights, g.dense)
	for id, f := range g.s.interned {
		if f != nil {
			g.s.sg.SetCost(steiner.EdgeID(id), quantiseCost(f.Dot(g.dense)))
		}
	}
	g.staleCosts = false
}

// LearnableFeatures returns the interned features of every learnable base
// edge, in edge-id order, and the dictionary that names their ids: the
// positivity constraints of a feedback update (learning.Positivity). The
// dictionary is the builder's; read it only while no other builder method
// runs.
func (g *Graph) LearnableFeatures() (*learning.Dict, []*learning.Interned) {
	out := make([]*learning.Interned, 0, len(g.s.interned))
	for _, f := range g.s.interned {
		if f != nil {
			out = append(out, f)
		}
	}
	return &g.dict, out
}

// EnsureWeight installs a default weight for a feature that has none yet
// (the per-edge keyword weights w_2, w_3, … of Figure 3 are seeded this way
// before a MIRA update touches them). It reports whether the default was
// installed.
func (g *Graph) EnsureWeight(feature string, def float64) bool {
	if _, ok := g.s.weights[feature]; ok {
		return false
	}
	g.own()
	g.s.weights[feature] = def
	return true
}

// quantiseCost quantises a learnable edge's cost (Equation 1) to 1e-9 and
// floors it at MinEdgeCost: the low bits of a float sum depend on the order
// of its terms, and unquantised costs would let them flip tie-breaks in
// top-k tree selection.
func quantiseCost(c float64) float64 {
	c = math.Round(c*1e9) / 1e9
	if c < MinEdgeCost {
		c = MinEdgeCost
	}
	return c
}

// price prices an edge with interned features f under the current
// weights, term for term as reprice sums them; a fixed edge (nil f) costs
// zero.
func (g *Graph) price(f *learning.Interned) float64 {
	if f == nil {
		return 0
	}
	return quantiseCost(f.DotVector(&g.dict, g.s.weights))
}

// setFeatures replaces a learnable edge's features, interns them and
// reprices the edge, unless pricing is deferred to RepriceEdges; callers
// hold ownership. Frozen snapshots share the old map and entries, so
// neither is mutated.
func (g *Graph) setFeatures(id steiner.EdgeID, f learning.Vector) {
	g.s.edges[id].Features = f
	g.s.interned[id] = g.dict.Intern(f)
	if !g.staleCosts {
		g.s.sg.SetCost(id, g.price(g.s.interned[id]))
	}
}

// Edge returns the search-graph edge metadata for an edge id.
func (g *Graph) Edge(id steiner.EdgeID) Edge { return g.s.edges[id] }

// NumEdges returns the edge count. Only tests call it: core's
// TestRefusedWriteIsInvisible compares the engine's graph under
// construction with the published snapshot through it.
func (g *Graph) NumEdges() int { return len(g.s.edges) }

// addNode appends a node with a parallel steiner node; callers own storage.
func (g *Graph) addNode(n Node) steiner.NodeID {
	id := g.s.sg.AddNode()
	n.ID = id
	g.s.nodes = append(g.s.nodes, n)
	return id
}

// addEdge appends an edge with a parallel steiner edge at the right cost,
// interning a learnable edge's features; callers own storage. While
// pricing is deferred to RepriceEdges, a learnable edge starts at cost 0.
func (g *Graph) addEdge(u, v steiner.NodeID, e Edge) steiner.EdgeID {
	var f *learning.Interned
	cost := 0.0
	if !e.Fixed {
		f = g.dict.Intern(e.Features)
		if !g.staleCosts {
			cost = g.price(f)
		}
	}
	return g.appendEdge(u, v, e, f, cost)
}

// appendEdge appends an edge with interned features f (nil for a fixed
// edge) and a parallel steiner edge at cost; callers own storage.
func (g *Graph) appendEdge(u, v steiner.NodeID, e Edge, f *learning.Interned, cost float64) steiner.EdgeID {
	id := g.s.sg.AddEdge(u, v, cost)
	e.ID = id
	g.s.edges = append(g.s.edges, e)
	g.s.interned = append(g.s.interned, f)
	return id
}

// RelationNode returns (and creates if needed) the node for a relation.
func (g *Graph) RelationNode(qualified string) steiner.NodeID {
	if id, ok := g.s.relNode[qualified]; ok {
		return id
	}
	g.own()
	id := g.addNode(Node{Kind: KindRelation, Rel: qualified})
	g.s.relNode[qualified] = id
	return id
}

// AttributeNode returns (and creates if needed) the node for an attribute,
// wiring the fixed zero-cost attribute↔relation edge on creation.
func (g *Graph) AttributeNode(ref relstore.AttrRef) steiner.NodeID {
	if id, ok := g.s.attrNode[ref]; ok {
		return id
	}
	g.own()
	id := g.addNode(Node{Kind: KindAttribute, Ref: ref})
	g.s.attrNode[ref] = id
	rel := g.RelationNode(ref.Relation)
	g.addEdge(id, rel, Edge{Kind: EdgeAttrRel, Fixed: true})
	return id
}

// AddForeignKeyEdge links two relation nodes with a learnable foreign-key
// edge carrying the standard feature set. from and to are the joined
// attribute pair declared by the foreign key.
func (g *Graph) AddForeignKeyEdge(from, to relstore.AttrRef) steiner.EdgeID {
	g.own()
	u := g.RelationNode(from.Relation)
	v := g.RelationNode(to.Relation)
	edgeKey := fmt.Sprintf("fk:%s->%s", from, to)
	f := learning.Vector{
		"default":              1,
		"fk":                   1,
		"rel:" + from.Relation: 1,
		"rel:" + to.Relation:   1,
		"edge:" + edgeKey:      1,
	}
	return g.addEdge(u, v, Edge{Kind: EdgeForeignKey, Features: f, A: from, B: to})
}

// AddAssociationEdge links two attribute nodes with a learnable association
// edge. The features argument carries matcher-confidence bins; the standard
// default/relation/edge indicators are added here. Adding the same pair
// again merges the new features into the existing edge (a second matcher
// endorsing the same alignment) and returns the existing id.
func (g *Graph) AddAssociationEdge(a, b relstore.AttrRef, features learning.Vector) steiner.EdgeID {
	a, b = canonicalPair(a, b)
	if id := g.association(a, b); id >= 0 {
		g.own()
		merged := g.s.edges[id].Features.Clone()
		mergeMatcherFeatures(merged, features)
		g.setFeatures(id, merged)
		return id
	}
	g.own()
	features = features.Clone()
	mergeMatcherFeatures(features, nil)
	u := g.AttributeNode(a)
	v := g.AttributeNode(b)
	f := learning.Vector{
		"default":                  1,
		"rel:" + a.Relation:        1,
		"rel:" + b.Relation:        1,
		AssociationIndicator(a, b): 1,
	}
	for k, x := range features {
		f[k] = x
	}
	return g.addEdge(u, v, Edge{Kind: EdgeAssociation, Features: f, A: a, B: b})
}

// AssociationIndicator is the name of the indicator feature unique to the
// association edge between a and b, given in canonical order (the order
// the edge stores its endpoints in): "edge:<a>~<b>".
func AssociationIndicator(a, b relstore.AttrRef) string {
	return "edge:" + a.Relation + "." + a.Attr + "~" + b.Relation + "." + b.Attr
}

// canonicalPair orders an attribute pair by rendered name, the order an
// association edge stores it in.
func canonicalPair(a, b relstore.AttrRef) (relstore.AttrRef, relstore.AttrRef) {
	if renderedLess(b, a) {
		return b, a
	}
	return a, b
}

// renderedLess reports whether x.String() < y.String() without rendering
// either: it walks the three parts of each rendering side by side.
func renderedLess(x, y relstore.AttrRef) bool {
	xs, ys := [3]string{x.Relation, ".", x.Attr}, [3]string{y.Relation, ".", y.Attr}
	i, j := 0, 0 // the parts being compared
	for {
		for i < 3 && xs[i] == "" {
			i++
		}
		for j < 3 && ys[j] == "" {
			j++
		}
		if i == 3 || j == 3 {
			return i == 3 && j < 3 // x is a proper prefix of y
		}
		n := min(len(xs[i]), len(ys[j]))
		if c := strings.Compare(xs[i][:n], ys[j][:n]); c != 0 {
			return c < 0
		}
		xs[i], ys[j] = xs[i][n:], ys[j][n:]
	}
}

// association returns the association edge between a and b, or -1: there
// is at most one per attribute pair, incident to both attribute nodes, so
// it scans the incident edges of the endpoint with fewer.
func (g *Graph) association(a, b relstore.AttrRef) steiner.EdgeID {
	u, ok := g.s.attrNode[a]
	v, ok2 := g.s.attrNode[b]
	if !ok || !ok2 {
		return -1
	}
	if g.s.sg.Degree(v) < g.s.sg.Degree(u) {
		u = v
	}
	for _, id := range g.s.sg.Incident(u) {
		if e := &g.s.edges[id]; e.Kind == EdgeAssociation && (e.A == a && e.B == b || e.A == b && e.B == a) {
			return id
		}
	}
	return -1
}

// mergeMatcherFeatures merges src into dst with matcher-endorsement
// semantics: a "matcher:<name>:binK" feature supersedes that matcher's
// ":absent" marker (an endorsement cancels the no-endorsement penalty), and
// when the same matcher endorses twice only the higher bin (more confident,
// cheaper under the standard weights) is kept. Other features overwrite
// key-wise. Passing nil src normalises dst in place under the same rules.
func mergeMatcherFeatures(dst, src learning.Vector) {
	for k, v := range src {
		dst[k] = v
	}
	type best struct {
		bin  int
		key  string
		seen bool
	}
	perMatcher := make(map[string]best)
	for k := range dst {
		name, bin, isBin := parseMatcherBin(k)
		if !isBin {
			continue
		}
		b := perMatcher[name]
		if !b.seen || bin > b.bin {
			if b.seen {
				delete(dst, b.key)
			}
			perMatcher[name] = best{bin: bin, key: k, seen: true}
		} else {
			delete(dst, k)
		}
	}
	for name := range perMatcher {
		delete(dst, "matcher:"+name+":absent")
	}
}

// parseMatcherBin recognises "matcher:<name>:bin<K>" feature keys.
func parseMatcherBin(key string) (name string, bin int, ok bool) {
	const prefix = "matcher:"
	if !strings.HasPrefix(key, prefix) {
		return "", 0, false
	}
	rest := key[len(prefix):]
	i := strings.LastIndex(rest, ":bin")
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(rest[i+4:])
	if err != nil {
		return "", 0, false
	}
	return rest[:i], n, true
}

// KwEdgeBaseWeight is the initial weight of each keyword edge's own
// indicator feature — the starting value of the per-edge adjustable
// weights w_2, w_3, … of the paper's Figure 3 (see Overlay.AddKeywordEdge).
const KwEdgeBaseWeight = 0.2

// Associations returns every association edge with its endpoints, sorted by
// edge id, for evaluation against gold standards.
type Association struct {
	ID   steiner.EdgeID
	A, B relstore.AttrRef
	Cost float64
}

func (s *store) associationList() []Association {
	var out []Association
	for _, e := range s.edges {
		if e.Kind != EdgeAssociation {
			continue
		}
		se := s.sg.Edge(e.ID)
		na, nb := s.nodes[se.U], s.nodes[se.V]
		out = append(out, Association{ID: e.ID, A: na.Ref, B: nb.Ref, Cost: se.Cost})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Stats summarises the graph for logs and tests.
type Stats struct {
	Relations, Attributes, Values, Keywords int
	ByEdgeKind                              map[EdgeKind]int
}

func (s *store) summary() Stats {
	out := Stats{ByEdgeKind: make(map[EdgeKind]int)}
	for _, n := range s.nodes {
		switch n.Kind {
		case KindRelation:
			out.Relations++
		case KindAttribute:
			out.Attributes++
		case KindValue:
			out.Values++
		default:
			out.Keywords++
		}
	}
	for _, e := range s.edges {
		out.ByEdgeKind[e.Kind]++
	}
	return out
}

// AddRelations incorporates relations new to the graph, all of them in the
// catalog c, in the order given and in two phases: every relation's
// relation and attribute nodes first, then every declared foreign key whose
// target c holds (paper §3.1: "the first step is to incorporate each of its
// underlying tables into the search graph"). Within one call, foreign keys
// between the new relations survive whatever their order.
func (g *Graph) AddRelations(c *relstore.Catalog, rels []*relstore.Relation) {
	for _, rel := range rels {
		qn := rel.QualifiedName()
		g.RelationNode(qn)
		for _, a := range rel.Attributes {
			g.AttributeNode(relstore.AttrRef{Relation: qn, Attr: a.Name})
		}
	}
	// Foreign keys second, so both endpoints exist.
	for _, rel := range rels {
		qn := rel.QualifiedName()
		for _, fk := range rel.ForeignKeys {
			if c.Relation(fk.ToRelation) == nil {
				continue // dangling FK: target not registered at all
			}
			g.AddForeignKeyEdge(
				relstore.AttrRef{Relation: qn, Attr: fk.FromAttr},
				relstore.AttrRef{Relation: fk.ToRelation, Attr: fk.ToAttr},
			)
		}
	}
}
