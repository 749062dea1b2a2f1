package searchgraph

import (
	"math"
	"testing"

	"qint/internal/relstore"
	"qint/internal/steiner"
)

// match is one keyword match of a test expansion: onto a data value of an
// attribute, or onto the attribute itself when value is empty.
type match struct {
	kw    string
	ref   relstore.AttrRef
	value string
	sim   float64
}

// expand builds an overlay of snap from a list of matches, the way core's
// expansion wires them, and returns it with its keyword nodes (in order of
// first mention) as terminals.
func expand(t *testing.T, snap *Snapshot, ms []match) (*Overlay, []steiner.NodeID) {
	t.Helper()
	ov := snap.NewOverlay()
	var terms []steiner.NodeID
	seen := make(map[string]bool)
	for _, m := range ms {
		kw := ov.KeywordNode(m.kw)
		if !seen[m.kw] {
			seen[m.kw] = true
			terms = append(terms, kw)
		}
		target := snap.LookupAttribute(m.ref)
		if m.value != "" {
			target = ov.ValueNode(m.ref, m.value)
		}
		if target < 0 {
			t.Fatalf("no node for %+v", m)
		}
		ov.AddKeywordEdge(kw, target, m.sim)
	}
	return ov, terms
}

// TestRepriceCarriesTreeAcrossGenerations carries a view's tree across
// three changes of the graph. Under new weights it maps and costs what the
// same tree costs there; after a registration that gives a keyword one more
// value match (and shifts every overlay id) it maps at the cost it had; and
// in a generation where its keyword no longer matches the tree's value
// node it does not map.
func TestRepriceCarriesTreeAcrossGenerations(t *testing.T) {
	g, cat := overlayFixture(t)
	name := relstore.AttrRef{Relation: "go.term", Attr: "name"}
	entry := relstore.AttrRef{Relation: "ip.entry", Attr: "entry_ac"}
	matches := []match{
		{"membrane", name, "membrane", 1},
		{"membrane", name, "", 0.8},
		{"IPR1", entry, "IPR1", 0.9},
	}
	ov1, terms := expand(t, g.Snapshot(), matches)
	var tree steiner.Tree
	for _, tr := range steiner.TopKSteinerOn(ov1.View(), terms, 5) {
		for _, e := range tr.Edges {
			if ov1.Edge(e).Kind == EdgeValueAttr && tree.Edges == nil {
				tree = tr
			}
		}
	}
	if tree.Edges == nil {
		t.Fatal("no tree through a value node")
	}
	if c, ok := ov1.Reprice(ov1, tree.Edges); !ok || math.Abs(c-tree.Cost) > 1e-12 {
		t.Fatalf("tree repriced in its own overlay: %v, %v; want %v", c, ok, tree.Cost)
	}

	// New weights: the same edge ids, other costs.
	w := g.Weights().Clone()
	w["default"] *= 3
	w["mismatch"] *= 2
	g.SetWeights(w)
	ov2, terms2 := expand(t, g.Snapshot(), matches)
	c2, ok := ov2.Reprice(ov1, tree.Edges)
	if !ok {
		t.Fatal("tree does not map across SetWeights")
	}
	if c2 == tree.Cost {
		t.Errorf("repriced cost %v did not move with the weights", c2)
	}
	found := false
	for _, tr := range steiner.TopKSteinerOn(ov2.View(), terms2, 5) {
		if tr.Key() == tree.Key() {
			found = true
			if math.Abs(tr.Cost-c2) > 1e-12 {
				t.Errorf("repriced cost %v, the search prices the tree at %v", c2, tr.Cost)
			}
		}
	}
	if !found {
		t.Error("the repriced tree is not among the new generation's answers")
	}

	// A registration: a new source whose value also matches "membrane". The
	// base grows, so every overlay id moves.
	rel := &relstore.Relation{Source: "x", Name: "alias", Attributes: []relstore.Attribute{{Name: "label"}}}
	tb, err := relstore.NewTable(rel, [][]string{{"membrane"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	g.AddRelations(cat, []*relstore.Relation{rel})
	withAlias := append(matches[:len(matches):len(matches)], match{"membrane", relstore.AttrRef{Relation: "x.alias", Attr: "label"}, "membrane", 1})
	ov3, _ := expand(t, g.Snapshot(), withAlias)
	if ov3.Snapshot().NumEdges() == ov2.Snapshot().NumEdges() {
		t.Fatal("the registration added no base edge")
	}
	if c3, ok := ov3.Reprice(ov1, tree.Edges); !ok || c3 != c2 {
		t.Errorf("after a registration the tree reprices to %v, %v; want %v, true", c3, ok, c2)
	}

	// A generation where "membrane" matches only the attribute: the tree's
	// keyword→value edge is gone.
	ov4, _ := expand(t, g.Snapshot(), matches[1:])
	if c4, ok := ov4.Reprice(ov1, tree.Edges); ok {
		t.Errorf("tree maps to cost %v after its keyword stopped matching its value", c4)
	}
	// The value node exists, matched by another keyword only: no edge from
	// "membrane" to it.
	ov5, _ := expand(t, g.Snapshot(), append(matches[1:], match{"other", name, "membrane", 1}))
	if c5, ok := ov5.Reprice(ov1, tree.Edges); ok {
		t.Errorf("tree maps to cost %v through another keyword's match", c5)
	}
}
