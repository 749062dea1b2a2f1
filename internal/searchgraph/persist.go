package searchgraph

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"

	"qint/internal/binio"
	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// This file is the search graph's checkpoint codec: the "graph" section of
// a checkpoint container, in the binary style of relstore's catalog and
// segment sections (internal/binio's primitives). Node and edge order is
// preserved exactly, so steiner ids stay stable across a save/load cycle
// (views serialised elsewhere keep referring to them). The section is, in
// order:
//
//   - the magic string graphBinMagic, which is the format's version;
//   - the weights: a count, then (name, float64 bits) in name order;
//   - the feature-name dictionary: a count, then each name the edges use,
//     once, in order of first use by edge id (within an edge, name order);
//   - the nodes: a count, then per node its kind and its one string — a
//     relation's qualified name or an attribute's rendered reference;
//   - the edges: a count, then per edge its kind, endpoints u and v, and
//     fixed flag; a foreign-key edge's attribute pair as rendered
//     references; then its features as (dictionary index, float64 bits) in
//     name order. An association edge's pair is its endpoints' references,
//     so it is not written.
//
// The encoder reads each learnable edge's interned entries, which are in
// name order already, and renumbers the builder's dictionary ids by first
// use. The same graph therefore always gives the same bytes, whatever
// names the builder has interned for edges a rollback discarded. The
// decoder rebuilds the dictionary in that same order, so a loaded graph's
// ids are those a fresh builder interning its edges in id order would
// assign, and it accepts a section only if re-encoding the graph it
// returns gives the section back. The JSON section this replaced is
// refused by name; its codec survives only as a test oracle.

const graphBinMagic = "QGRFb1\n\n"

var errJSONGraph = errors.New("searchgraph: load: a JSON graph section (the retired format) is no longer read")

// Save writes the graph's topology, features and weights as the binary
// "graph" section. The builder holds relation and attribute nodes only;
// keyword and value nodes live in per-query overlays.
func (g *Graph) Save(w io.Writer) error {
	b := binio.NewWriter(w)
	b.Raw(graphBinMagic)
	names := slices.Sorted(maps.Keys(g.s.weights))
	b.Uvarint(uint64(len(names)))
	for _, k := range names {
		b.Str(k)
		b.Float64(g.s.weights[k])
	}

	// index[id] is a builder dictionary id's section index + 1; 0 = unused.
	index := make([]uint32, g.dict.Len())
	var used []int32
	for _, f := range g.s.interned {
		if f == nil {
			continue
		}
		for _, e := range f.Entries {
			if index[e.ID] == 0 {
				used = append(used, e.ID)
				index[e.ID] = uint32(len(used))
			}
		}
	}
	b.Uvarint(uint64(len(used)))
	for _, id := range used {
		b.Str(g.dict.Name(id))
	}

	b.Uvarint(uint64(len(g.s.nodes)))
	for _, n := range g.s.nodes {
		b.Uvarint(uint64(n.Kind))
		if n.Kind == KindRelation {
			b.Str(n.Rel)
		} else {
			b.Str(n.Ref.String())
		}
	}

	b.Uvarint(uint64(len(g.s.edges)))
	for i, e := range g.s.edges {
		ge := g.s.sg.Edge(e.ID)
		b.Uvarint(uint64(e.Kind))
		b.Uvarint(uint64(ge.U))
		b.Uvarint(uint64(ge.V))
		fixed := uint64(0)
		if e.Fixed {
			fixed = 1
		}
		b.Uvarint(fixed)
		if e.Kind == EdgeForeignKey {
			b.Str(refString(e.A))
			b.Str(refString(e.B))
		}
		f := g.s.interned[i]
		if f == nil {
			b.Uvarint(0)
			continue
		}
		b.Uvarint(uint64(len(f.Entries)))
		for _, en := range f.Entries {
			b.Uvarint(uint64(index[en.ID] - 1))
			b.Float64(en.X)
		}
	}
	return b.Flush()
}

// refString renders a reference, the zero reference as "".
func refString(r relstore.AttrRef) string {
	if r == (relstore.AttrRef{}) {
		return ""
	}
	return r.String()
}

// parseRef parses a rendered reference, "" as the zero reference.
func parseRef(s string) (relstore.AttrRef, error) {
	if s == "" {
		return relstore.AttrRef{}, nil
	}
	return relstore.ParseAttrRef(s)
}

// Load reconstructs a graph from a section written by Save. The returned
// graph has identical node and edge ids, features, weights and costs, and
// its strings alias one copy of data. Keyword and value nodes, and keyword
// and value-attr edges, belong to query overlays and never to a saved
// graph: Load rejects them. It also rejects a second node for one relation
// or attribute, an endpoint out of range, a malformed reference, an
// association edge whose endpoints are not attribute nodes, a second
// association edge for one pair, a fixed edge with features, features out
// of name order, and a dictionary out of first-use order or holding a
// name no edge uses.
func Load(data []byte) (*Graph, error) {
	if len(data) > 0 && data[0] == '{' {
		return nil, errJSONGraph
	}
	r := binio.NewReader(data, graphBinMagic)
	g := New(nil)
	g.s.weights = make(learning.Vector)
	for i, n, prev := 0, r.Count("weight"), ""; i < n && r.Err() == nil; i++ {
		k, x := r.Str(), r.Float64()
		if i > 0 && k <= prev {
			r.Failf("weight %q is not above its predecessor", k)
		}
		g.s.weights[k], prev = x, k
	}
	names := make([]string, r.Count("feature name"))
	for i := range names {
		names[i] = r.Str()
		if r.Err() == nil && g.dict.ID(names[i]) != int32(i) {
			r.Failf("feature name %q is in the dictionary twice", names[i])
		}
		if r.Err() != nil {
			break
		}
	}
	g.loadNodes(r)
	g.loadEdges(r, names)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("searchgraph: load: %w", err)
	}
	return g, nil
}

// loadNodes decodes the node list into the empty graph g.
func (g *Graph) loadNodes(r *binio.Reader) {
	n := r.Count("node")
	g.s.nodes = make([]Node, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		kind, s := NodeKind(r.Uvarint()), r.Str()
		if r.Err() != nil {
			return
		}
		switch kind {
		case KindRelation:
			if _, dup := g.s.relNode[s]; dup {
				r.Failf("node %d: a second node for relation %s", i, s)
				return
			}
			g.s.relNode[s] = g.addNode(Node{Kind: kind, Rel: s})
		case KindAttribute:
			ref, err := relstore.ParseAttrRef(s)
			if err != nil {
				r.Failf("node %d: %w", i, err)
				return
			}
			if _, dup := g.s.attrNode[ref]; dup {
				r.Failf("node %d: a second node for attribute %s", i, ref)
				return
			}
			g.s.attrNode[ref] = g.addNode(Node{Kind: kind, Ref: ref})
		default:
			r.Failf("node %d: %s node in a base graph", i, kind)
		}
	}
}

// loadEdges decodes the edge list into g, whose nodes, weights and
// dictionary (names, by section index) are loaded. It prices each learnable
// edge from its entries, as reprice does, and fails r unless the edges use
// the dictionary in first-use order and use all of it.
func (g *Graph) loadEdges(r *binio.Reader, names []string) {
	n := r.Count("edge")
	g.s.edges = make([]Edge, 0, n)
	g.s.interned = make([]*learning.Interned, 0, n)
	g.dense = g.dict.Dense(g.s.weights, g.dense)
	pairs := make(map[[2]steiner.NodeID]struct{}) // association pairs so far
	used := 0                                     // dictionary names used so far
	for i := 0; i < n && r.Err() == nil; i++ {
		e := Edge{Kind: EdgeKind(r.Uvarint())}
		u64, v64, fixed := r.Uvarint(), r.Uvarint(), r.Uvarint()
		switch {
		case r.Err() != nil:
			return
		case e.Kind != EdgeAttrRel && e.Kind != EdgeForeignKey && e.Kind != EdgeAssociation:
			r.Failf("edge %d: %s edge in a base graph", i, e.Kind)
			return
		case u64 >= uint64(len(g.s.nodes)) || v64 >= uint64(len(g.s.nodes)):
			r.Failf("edge %d: endpoint out of range", i)
			return
		case fixed > 1:
			r.Failf("edge %d: fixed flag %d", i, fixed)
			return
		}
		u, v := steiner.NodeID(u64), steiner.NodeID(v64)
		e.Fixed = fixed == 1
		switch e.Kind {
		case EdgeForeignKey:
			var errA, errB error
			e.A, errA = parseRef(r.Str())
			e.B, errB = parseRef(r.Str())
			if err := errors.Join(errA, errB); err != nil {
				r.Failf("edge %d: %w", i, err)
			}
		case EdgeAssociation:
			nu, nv := g.s.nodes[u], g.s.nodes[v]
			pair := [2]steiner.NodeID{min(u, v), max(u, v)}
			if nu.Kind != KindAttribute || nv.Kind != KindAttribute {
				r.Failf("edge %d: endpoints are not the attribute nodes of an association pair", i)
			} else if _, dup := pairs[pair]; dup {
				r.Failf("edge %d: a second association edge for %s and %s", i, nu.Ref, nv.Ref)
			}
			pairs[pair] = struct{}{}
			e.A, e.B = nu.Ref, nv.Ref
		}
		nFeat := r.Count("feature")
		if nFeat > 0 && e.Fixed {
			r.Failf("edge %d: a fixed edge with features", i)
		}
		switch {
		case r.Err() != nil:
			return
		case e.Fixed:
			g.appendEdge(u, v, e, nil, 0)
			continue
		}
		f := &learning.Interned{Entries: make([]learning.Entry, nFeat)}
		if nFeat > 0 {
			e.Features = make(learning.Vector, nFeat)
		}
		for j := range f.Entries {
			id, x := r.Uvarint(), r.Float64()
			switch {
			case r.Err() != nil:
				return
			case id > uint64(used) || id == uint64(len(names)):
				r.Failf("edge %d: feature index %d out of first-use order", i, id)
				return
			case j > 0 && names[id] <= names[f.Entries[j-1].ID]:
				r.Failf("edge %d: feature %q is not above its predecessor", i, names[id])
				return
			}
			if id == uint64(used) {
				used++
			}
			f.Entries[j] = learning.Entry{ID: int32(id), X: x}
			f.Norm2 += x * x
			e.Features[names[id]] = x
		}
		g.appendEdge(u, v, e, f, quantiseCost(f.Dot(g.dense)))
	}
	if r.Err() == nil && used != len(names) {
		r.Failf("%d dictionary names no edge uses", len(names)-used)
	}
}
