package searchgraph

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

func ref(rel, attr string) relstore.AttrRef {
	return relstore.AttrRef{Relation: rel, Attr: attr}
}

func defaultWeights() learning.Vector {
	return learning.Vector{"default": 1, "fk": 0.5, "kw": 0.1, "mismatch": 1}
}

func TestNodeCreationIdempotent(t *testing.T) {
	g := New(defaultWeights())
	r1 := g.RelationNode("ip.entry")
	r2 := g.RelationNode("ip.entry")
	if r1 != r2 {
		t.Error("relation node should be created once")
	}
	a1 := g.AttributeNode(ref("ip.entry", "name"))
	a2 := g.AttributeNode(ref("ip.entry", "name"))
	if a1 != a2 {
		t.Error("attribute node should be created once")
	}
	s := g.Summary()
	if s.Relations != 1 || s.Attributes != 1 || s.Values != 0 || s.Keywords != 0 {
		t.Errorf("summary = %+v", s)
	}
	if s.ByEdgeKind[EdgeAttrRel] != 1 {
		t.Errorf("attr-rel edge missing: %+v", s.ByEdgeKind)
	}
	// Value and keyword nodes are per query: an overlay creates each once.
	snap := g.Snapshot()
	ov := snap.NewOverlay()
	v1 := ov.ValueNode(ref("ip.entry", "name"), "Kringle")
	v2 := ov.ValueNode(ref("ip.entry", "name"), "Kringle")
	if v1 < 0 || v1 != v2 {
		t.Errorf("value node should be created once: %d vs %d", v1, v2)
	}
	k1 := ov.KeywordNode("plasma")
	k2 := ov.KeywordNode("plasma")
	if k1 != k2 {
		t.Error("keyword node should be created once")
	}
	if ov.Node(v1).Kind != KindValue || ov.Node(k1).Kind != KindKeyword {
		t.Errorf("kinds: %v, %v", ov.Node(v1).Kind, ov.Node(k1).Kind)
	}
	// value + keyword nodes, one value-attr edge, all in the overlay
	if got := ov.View().NumNodes() - snap.NumNodes(); got != 2 {
		t.Errorf("overlay nodes = %d, want 2", got)
	}
	if got := ov.View().NumEdges() - snap.NumEdges(); got != 1 {
		t.Errorf("overlay edges = %d, want 1", got)
	}
	if snap.NumNodes() != 2 || g.NumNodes() != 2 {
		t.Errorf("base grew: snapshot %d, builder %d nodes", snap.NumNodes(), g.NumNodes())
	}
}

func TestStructuralEdgesAreZeroCost(t *testing.T) {
	g := New(defaultWeights())
	g.AttributeNode(ref("ip.entry", "name"))
	for _, id := range g.EdgesOfKind(EdgeAttrRel) {
		if g.Cost(id) != 0 {
			t.Errorf("attr-rel edge cost = %v, want 0", g.Cost(id))
		}
	}
	snap := g.Snapshot()
	ov := snap.NewOverlay()
	ov.ValueNode(ref("ip.entry", "name"), "v")
	n := 0
	for id := steiner.EdgeID(snap.NumEdges()); int(id) < ov.View().NumEdges(); id++ {
		if e := ov.Edge(id); e.Kind != EdgeValueAttr || !e.Fixed {
			t.Errorf("overlay edge %d = %+v, want a fixed value-attr edge", id, e)
		}
		if ov.Cost(id) != 0 {
			t.Errorf("value-attr edge cost = %v, want 0", ov.Cost(id))
		}
		n++
	}
	if n != 1 {
		t.Errorf("value-attr edges = %d, want 1", n)
	}
}

func TestForeignKeyEdgeCost(t *testing.T) {
	g := New(defaultWeights())
	id := g.AddForeignKeyEdge(ref("ip.entry2pub", "pub_id"), ref("ip.pub", "pub_id"))
	// default(1) + fk(0.5); rel:* and edge:* features have no weight yet.
	if got := g.Cost(id); got != 1.5 {
		t.Errorf("fk cost = %v, want 1.5", got)
	}
	e := g.Edge(id)
	if e.Kind != EdgeForeignKey || e.Fixed {
		t.Errorf("edge meta wrong: %+v", e)
	}
	if e.Features["rel:ip.entry2pub"] != 1 || e.Features["rel:ip.pub"] != 1 {
		t.Errorf("relation features missing: %v", e.Features)
	}
	if e.A != ref("ip.entry2pub", "pub_id") || e.B != ref("ip.pub", "pub_id") {
		t.Errorf("FK attr pair not recorded: %+v", e)
	}
}

func TestAssociationEdgeMergesFeatures(t *testing.T) {
	g := New(defaultWeights())
	a, b := ref("go.term", "acc"), ref("ip.interpro2go", "go_id")
	id1 := g.AddAssociationEdge(a, b, learning.Vector{"matcher:mad:bin4": 1})
	// Same pair in flipped order merges rather than duplicating.
	id2 := g.AddAssociationEdge(b, a, learning.Vector{"matcher:meta:bin3": 1})
	if id1 != id2 {
		t.Errorf("association duplicated: %d vs %d", id1, id2)
	}
	e := g.Edge(id1)
	if e.Features["matcher:mad:bin4"] != 1 || e.Features["matcher:meta:bin3"] != 1 {
		t.Errorf("features not merged: %v", e.Features)
	}
	if len(g.AssociationList()) != 1 {
		t.Errorf("AssociationList = %v", g.AssociationList())
	}
}

func TestKeywordEdgeMismatchScaling(t *testing.T) {
	g := New(defaultWeights())
	attr := g.AttributeNode(ref("go.term", "name"))
	rel := g.LookupRelation("go.term")
	snap := g.Snapshot()
	ov := snap.NewOverlay()
	kw := ov.KeywordNode("membrane")
	// Distinct targets: an overlay keeps one edge per (keyword, target).
	perfect := ov.AddKeywordEdge(kw, attr, 1.0)
	poor := ov.AddKeywordEdge(kw, rel, 0.2)
	if !(ov.Cost(perfect) < ov.Cost(poor)) {
		t.Errorf("perfect match should cost less: %v vs %v", ov.Cost(perfect), ov.Cost(poor))
	}
	// similarity clamped to [0,1]
	high := ov.AddKeywordEdge(kw, ov.ValueNode(ref("go.term", "name"), "membrane"), 7)
	if want := kwEdgeCostRef(snap.Weights(), "edge:kw:membrane->go.term.name=membrane", 1); ov.Cost(high) != want {
		t.Errorf("clamp above 1 broken: %v vs %v", ov.Cost(high), want)
	}
	low := ov.AddKeywordEdge(kw, ov.ValueNode(ref("go.term", "name"), "x"), -3)
	if want := kwEdgeCostRef(snap.Weights(), "edge:kw:membrane->go.term.name=x", 0); ov.Cost(low) != want {
		t.Errorf("clamp below 0 broken: %v vs %v", ov.Cost(low), want)
	}
	if ov.Cost(high) != ov.Cost(perfect) {
		t.Errorf("sim 7 should cost like sim 1: %v vs %v", ov.Cost(high), ov.Cost(perfect))
	}
}

func TestSetWeightsRecomputesCosts(t *testing.T) {
	g := New(defaultWeights())
	id := g.AddForeignKeyEdge(ref("a.r1", "x"), ref("a.r2", "y"))
	before := g.Cost(id)
	w := defaultWeights()
	w["fk"] = 5
	g.SetWeights(w)
	after := g.Cost(id)
	if after <= before {
		t.Errorf("cost should rise: %v -> %v", before, after)
	}
	// Negative dot products floor at MinEdgeCost, not negative.
	w["default"] = -100
	g.SetWeights(w)
	if got := g.Cost(id); got != MinEdgeCost {
		t.Errorf("floored cost = %v, want %v", got, MinEdgeCost)
	}
}

func buildTestCatalog(t *testing.T) *relstore.Catalog {
	t.Helper()
	c := relstore.NewCatalog()
	add := func(rel *relstore.Relation, rows [][]string) {
		tb, err := relstore.NewTable(rel, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	add(&relstore.Relation{Source: "go", Name: "term",
		Attributes: []relstore.Attribute{{Name: "acc"}, {Name: "name"}}}, nil)
	add(&relstore.Relation{Source: "ip", Name: "interpro2go",
		Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "go_id"}},
		ForeignKeys: []relstore.ForeignKey{
			{FromAttr: "entry_ac", ToRelation: "ip.entry", ToAttr: "entry_ac"},
			{FromAttr: "go_id", ToRelation: "missing.rel", ToAttr: "x"}, // dangling
		}}, nil)
	add(&relstore.Relation{Source: "ip", Name: "entry",
		Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "name"}}}, nil)
	return c
}

func TestBuildFromCatalog(t *testing.T) {
	c := buildTestCatalog(t)
	g := Build(c, defaultWeights())
	s := g.Summary()
	if s.Relations != 3 {
		t.Errorf("relations = %d, want 3", s.Relations)
	}
	if s.Attributes != 6 {
		t.Errorf("attributes = %d, want 6", s.Attributes)
	}
	if s.ByEdgeKind[EdgeAttrRel] != 6 {
		t.Errorf("attr-rel edges = %d, want 6", s.ByEdgeKind[EdgeAttrRel])
	}
	// one FK resolves, the dangling one is skipped
	if s.ByEdgeKind[EdgeForeignKey] != 1 {
		t.Errorf("fk edges = %d, want 1", s.ByEdgeKind[EdgeForeignKey])
	}
	if g.LookupRelation("ip.entry") < 0 {
		t.Error("ip.entry node missing")
	}
	if g.LookupRelation("missing.rel") != -1 {
		t.Error("dangling FK target should not create a node via Build")
	}
	if g.LookupAttribute(ref("go.term", "acc")) < 0 {
		t.Error("go.term.acc node missing")
	}
	if g.LookupAttribute(ref("go.term", "ghost")) != -1 {
		t.Error("unknown attribute should be -1")
	}
}

func TestAddSourceIncremental(t *testing.T) {
	c := buildTestCatalog(t)
	g := New(defaultWeights())
	g.AddSource(c, "go")
	if g.Summary().Relations != 1 {
		t.Fatalf("only go.term expected, got %+v", g.Summary())
	}
	g.AddSource(c, "ip")
	s := g.Summary()
	if s.Relations != 3 || s.ByEdgeKind[EdgeForeignKey] != 1 {
		t.Errorf("after adding ip: %+v", s)
	}
}

func TestNodeLabels(t *testing.T) {
	g := New(nil)
	rid := g.RelationNode("ip.pub")
	if g.Node(rid).Label() != "ip.pub" {
		t.Errorf("relation label = %q", g.Node(rid).Label())
	}
	aid := g.AttributeNode(ref("ip.pub", "title"))
	if g.Node(aid).Label() != "ip.pub.title" {
		t.Errorf("attribute label = %q", g.Node(aid).Label())
	}
	ov := g.Snapshot().NewOverlay()
	vid := ov.ValueNode(ref("ip.pub", "title"), "Paper")
	if ov.Node(vid).Label() != "ip.pub.title=Paper" {
		t.Errorf("value label = %q", ov.Node(vid).Label())
	}
	kid := ov.KeywordNode("pub")
	if ov.Node(kid).Label() != "kw:pub" {
		t.Errorf("keyword label = %q", ov.Node(kid).Label())
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[string]string{
		KindRelation.String():  "relation",
		KindAttribute.String(): "attribute",
		KindValue.String():     "value",
		KindKeyword.String():   "keyword",
	}
	for got, want := range kinds {
		if got != want {
			t.Errorf("kind string %q != %q", got, want)
		}
	}
	edgeKinds := []EdgeKind{EdgeAttrRel, EdgeForeignKey, EdgeAssociation, EdgeKeyword, EdgeValueAttr}
	seen := make(map[string]bool)
	for _, k := range edgeKinds {
		if seen[k.String()] {
			t.Errorf("duplicate edge kind string %q", k.String())
		}
		seen[k.String()] = true
	}
}

// TestReplayedDeltasPriceOnce pins the replay contract of ApplyWeightDelta:
// K deltas applied to the weights alone, interleaved with association
// edges restored as a WAL tail replays them, then one RepriceEdges, leave
// every edge cost bitwise equal to applying each delta with SetWeights,
// which reprices every edge every time.
func TestReplayedDeltasPriceOnce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	features := []string{"default", "fk", "kw", "mismatch", "m:name", "m:value", "m:type", "ind:a", "ind:b"}
	randomVector := func() learning.Vector {
		v := learning.Vector{}
		for _, f := range features {
			if r.Intn(2) == 0 {
				v[f] = r.Float64()*4 - 1
			}
		}
		return v
	}
	attrs := []relstore.AttrRef{
		ref("go.term", "acc"), ref("go.term", "name"), ref("ip.interpro2go", "go_id"),
		ref("ip.interpro2go", "entry_ac"), ref("ip.entry", "entry_ac"), ref("ip.entry", "name"),
	}
	replayed := Build(buildTestCatalog(t), defaultWeights())
	live := Build(buildTestCatalog(t), defaultWeights())
	restore := func(a, b relstore.AttrRef, f learning.Vector) {
		replayed.RestoreAssociationEdge(a, b, f)
		live.RestoreAssociationEdge(a, b, f)
	}
	for i := 0; i < 4; i++ {
		restore(attrs[i], attrs[i+2], randomVector())
	}
	const K = 40
	for k := 0; k < K; k++ {
		d := WeightDelta{Set: randomVector()}
		for _, f := range features {
			if _, set := d.Set[f]; !set && r.Intn(6) == 0 {
				d.Del = append(d.Del, f)
			}
		}
		replayed.ApplyWeightDelta(d)
		w := live.Weights().Clone()
		for f, v := range d.Set {
			w[f] = v
		}
		for _, f := range d.Del {
			delete(w, f)
		}
		live.SetWeights(w)
		if k%8 == 3 {
			a, b := attrs[r.Intn(len(attrs))], attrs[r.Intn(len(attrs))]
			if a != b {
				restore(a, b, randomVector())
			}
		}
	}
	stale := 0
	for id := range replayed.NumEdges() {
		if replayed.Cost(steiner.EdgeID(id)) != live.Cost(steiner.EdgeID(id)) {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("no edge cost is stale before RepriceEdges: the deltas exercise nothing")
	}
	replayed.RepriceEdges()
	if !maps.Equal(replayed.Weights(), live.Weights()) {
		t.Fatalf("weights diverged:\n%v\n%v", replayed.Weights(), live.Weights())
	}
	if replayed.NumEdges() != live.NumEdges() {
		t.Fatalf("%d edges replayed, %d live", replayed.NumEdges(), live.NumEdges())
	}
	for id := range replayed.NumEdges() {
		e := steiner.EdgeID(id)
		if got, want := replayed.Cost(e), live.Cost(e); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("edge %d (%s): replayed cost %v, live %v", id, live.Edge(e).Kind, got, want)
		}
	}
	// Nothing is stale any more: a second RepriceEdges must not clone.
	snap := replayed.Snapshot()
	replayed.RepriceEdges()
	if replayed.Snapshot() != snap {
		t.Error("RepriceEdges repriced with no stale cost")
	}
}

// TestRenderedLessMatchesString pins canonicalPair's comparison to the
// order of the rendered names it avoids building, on parts drawn from an
// alphabet that includes the separator and the empty string.
func TestRenderedLessMatchesString(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	part := func() string {
		const alphabet = "a.b~"
		b := make([]byte, r.Intn(4))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	for range 20000 {
		x := relstore.AttrRef{Relation: part(), Attr: part()}
		y := relstore.AttrRef{Relation: part(), Attr: part()}
		if got, want := renderedLess(x, y), x.String() < y.String(); got != want {
			t.Fatalf("renderedLess(%q, %q) = %v, want %v", x, y, got, want)
		}
	}
}
