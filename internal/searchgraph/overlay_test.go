package searchgraph

import (
	"bytes"
	"math"
	"testing"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// overlayFixture builds a small two-source graph with an association
// bridging the sources, the shape every overlay test here works against.
func overlayFixture(t *testing.T) (*Graph, *relstore.Catalog) {
	t.Helper()
	cat := relstore.NewCatalog()
	mk := func(src, name string, attrs []string, rows [][]string, fks ...relstore.ForeignKey) {
		rel := &relstore.Relation{Source: src, Name: name, ForeignKeys: fks}
		for _, a := range attrs {
			rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: a})
		}
		tb, err := relstore.NewTable(rel, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	mk("go", "term", []string{"acc", "name"}, [][]string{{"GO:1", "membrane"}, {"GO:2", "nucleus"}})
	mk("ip", "entry", []string{"entry_ac", "go_id"}, [][]string{{"IPR1", "GO:1"}, {"IPR2", "GO:2"}})
	g := Build(cat, learning.Vector{"default": 0.1, "fk": 0.9, "mismatch": 1.0})
	g.AddAssociationEdge(
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "go_id"},
		learning.Vector{"handcoded": 1})
	return g, cat
}

// runOverlayQuery simulates one keyword query against a snapshot: keyword
// nodes, value nodes, keyword edges, and a Steiner search over the
// combined view.
func runOverlayQuery(t *testing.T, snap *Snapshot, kw1, kw2 string) []steiner.Tree {
	t.Helper()
	ov := snap.NewOverlay()
	k1 := ov.KeywordNode(kw1)
	k2 := ov.KeywordNode(kw2)
	ov.AddKeywordEdge(k1, snap.LookupAttribute(relstore.AttrRef{Relation: "go.term", Attr: "name"}), 0.8)
	if vn := ov.ValueNode(relstore.AttrRef{Relation: "go.term", Attr: "name"}, kw1); vn >= 0 {
		ov.AddKeywordEdge(k1, vn, 1.0)
	}
	ov.AddKeywordEdge(k2, snap.LookupRelation("ip.entry"), 0.7)
	if vn := ov.ValueNode(relstore.AttrRef{Relation: "ip.entry", Attr: "entry_ac"}, kw2); vn >= 0 {
		ov.AddKeywordEdge(k2, vn, 0.9)
	}
	trees := steiner.TopKSteinerOn(ov.View(), []steiner.NodeID{k1, k2}, 3)
	if len(trees) == 0 {
		t.Fatal("overlay query found no trees")
	}
	return trees
}

// TestOverlayNeverLeaksIntoBase is the metamorphic persistence check: the
// base graph's persisted bytes are identical before and after a corpus of
// overlay queries — keyword nodes, keyword edges and lazily materialised
// value nodes live and die in the overlay, never touching the base.
func TestOverlayNeverLeaksIntoBase(t *testing.T) {
	g, _ := overlayFixture(t)
	var before bytes.Buffer
	if err := g.Save(&before); err != nil {
		t.Fatal(err)
	}
	snap0 := g.Snapshot()

	queries := [][2]string{
		{"membrane", "IPR1"},
		{"nucleus", "IPR2"},
		{"membrane", "IPR2"},
		{"nucleus", "IPR1"},
		{"membrane", "IPR1"}, // repeat: same expansion, fresh overlay
	}
	for _, kws := range queries {
		snap := g.Snapshot()
		runOverlayQuery(t, snap, kws[0], kws[1])
	}

	var after bytes.Buffer
	if err := g.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("overlay queries leaked into the base graph\nbefore: %s\nafter:  %s",
			before.String(), after.String())
	}
	if g.Snapshot() != snap0 {
		t.Error("overlay queries made the builder clone its storage")
	}
	if sum := g.Summary(); sum.Keywords != 0 || sum.Values != 0 {
		t.Errorf("base graph grew %d keyword and %d value nodes", sum.Keywords, sum.Values)
	}
}

// TestSnapshotFrozenUnderWriter pins copy-on-write: a snapshot taken
// before a mutation keeps its exact node/edge counts and costs while the
// builder moves on, and the next snapshot is a new one.
func TestSnapshotFrozenUnderWriter(t *testing.T) {
	g, _ := overlayFixture(t)
	snap := g.Snapshot()
	nodes, edges := snap.NumNodes(), snap.NumEdges()
	assocCost := snap.Cost(snap.AssociationList()[0].ID)

	// Writer mutations of every flavour.
	g.AddAssociationEdge(
		relstore.AttrRef{Relation: "go.term", Attr: "name"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "entry_ac"},
		learning.Vector{"handcoded": 1})
	w := g.Weights().Clone()
	w["default"] += 5
	g.SetWeights(w)

	if snap.NumNodes() != nodes || snap.NumEdges() != edges {
		t.Errorf("snapshot grew under the writer: %d/%d -> %d/%d nodes/edges",
			nodes, edges, snap.NumNodes(), snap.NumEdges())
	}
	if got := snap.Cost(snap.AssociationList()[0].ID); got != assocCost {
		t.Errorf("snapshot edge cost changed under SetWeights: %v -> %v", assocCost, got)
	}
	if g.NumEdges() == edges {
		t.Error("builder did not gain the new edge")
	}
	// A fresh snapshot sees the new state.
	snap2 := g.Snapshot()
	if snap2.NumEdges() != edges+1 {
		t.Errorf("new snapshot has %d edges, want %d", snap2.NumEdges(), edges+1)
	}
	if snap2 == snap {
		t.Error("a mutation did not clone the builder: the new snapshot is the old one")
	}
}

// TestResetDiscardsMutations: Reset returns the builder to a snapshot taken
// from it, and the next mutation clones again, leaving the snapshot
// untouched.
func TestResetDiscardsMutations(t *testing.T) {
	g, _ := overlayFixture(t)
	snap := g.Snapshot()
	g.AddAssociationEdge(
		relstore.AttrRef{Relation: "go.term", Attr: "name"},
		relstore.AttrRef{Relation: "ip.entry", Attr: "entry_ac"},
		learning.Vector{"handcoded": 1})
	g.Reset(snap)
	if g.Snapshot() != snap || g.NumEdges() != snap.NumEdges() {
		t.Fatalf("after Reset the builder has %d edges and a new snapshot; want the snapshot's %d", g.NumEdges(), snap.NumEdges())
	}
	g.EnsureWeight("fresh", 1)
	if g.Snapshot() == snap {
		t.Error("a mutation after Reset did not clone the builder")
	}
	if _, ok := snap.Weights()["fresh"]; ok {
		t.Error("a mutation after Reset wrote into the snapshot")
	}
}

// kwEdgeCostRef is what a keyword edge must cost: w·f over its mismatch
// feature (1 − sim) and its own indicator feature, with the indicator's
// weight seeded to KwEdgeBaseWeight when w carries none, rounded to 1e-9 and
// floored at MinEdgeCost.
func kwEdgeCostRef(w learning.Vector, edgeFeat string, sim float64) float64 {
	seeded := w.Clone()
	if _, ok := seeded[edgeFeat]; !ok {
		seeded[edgeFeat] = KwEdgeBaseWeight
	}
	c := math.Round(seeded.Dot(learning.Vector{"mismatch": 1 - sim, edgeFeat: 1})*1e9) / 1e9
	return max(c, MinEdgeCost)
}

// TestOverlayKeywordEdgeCostMatchesBuilder pins the overlay keyword-edge
// cost to the reference arithmetic: the KwEdgeBaseWeight default enters the
// cost without being written into shared weights, a learned per-edge weight
// in the snapshot is honoured, and the cost floors at MinEdgeCost.
func TestOverlayKeywordEdgeCostMatchesBuilder(t *testing.T) {
	g, _ := overlayFixture(t)
	attr := relstore.AttrRef{Relation: "go.term", Attr: "name"}
	const feat = "edge:kw:membrane->go.term.name"

	snap := g.Snapshot()
	ov := snap.NewOverlay()
	kwO := ov.KeywordNode("membrane")
	eidO := ov.AddKeywordEdge(kwO, snap.LookupAttribute(attr), 0.75)
	if got, want := ov.Cost(eidO), kwEdgeCostRef(snap.Weights(), feat, 0.75); got != want {
		t.Errorf("overlay keyword edge cost %v, reference %v", got, want)
	}
	if _, ok := snap.Weights()[feat]; ok {
		t.Error("overlay keyword edge wrote its weight into shared weights")
	}

	// A learned weight overrides the default.
	g.EnsureWeight(feat, 0.7)
	snap2 := g.Snapshot()
	ov2 := snap2.NewOverlay()
	kw2 := ov2.KeywordNode("membrane")
	eid2 := ov2.AddKeywordEdge(kw2, snap2.LookupAttribute(attr), 0.75)
	if got, want := ov2.Cost(eid2), kwEdgeCostRef(snap2.Weights(), feat, 0.75); got != want {
		t.Errorf("learned-weight keyword edge cost %v, reference %v", got, want)
	}
	if ov2.Cost(eid2) <= ov.Cost(eidO) {
		t.Errorf("learned heavier weight should raise the edge cost: %v vs %v",
			ov2.Cost(eid2), ov.Cost(eidO))
	}

	// A negative learned weight floors at MinEdgeCost.
	g.SetWeights(learning.Vector{"mismatch": -5})
	snap3 := g.Snapshot()
	ov3 := snap3.NewOverlay()
	eid3 := ov3.AddKeywordEdge(ov3.KeywordNode("membrane"), snap3.LookupAttribute(attr), 0)
	if got := ov3.Cost(eid3); got != MinEdgeCost || got != kwEdgeCostRef(snap3.Weights(), feat, 0) {
		t.Errorf("floored keyword edge cost %v, want %v", got, MinEdgeCost)
	}
}

// TestOverlayDedupsKeywordEdges: re-adding the same (keyword, target) match
// returns the existing edge instead of a parallel one.
func TestOverlayDedupsKeywordEdges(t *testing.T) {
	g, _ := overlayFixture(t)
	snap := g.Snapshot()
	ov := snap.NewOverlay()
	kw := ov.KeywordNode("membrane")
	target := snap.LookupAttribute(relstore.AttrRef{Relation: "go.term", Attr: "name"})
	e1 := ov.AddKeywordEdge(kw, target, 0.8)
	e2 := ov.AddKeywordEdge(kw, target, 0.8)
	if e1 != e2 {
		t.Errorf("duplicate keyword match created a parallel edge: %d vs %d", e1, e2)
	}
}
