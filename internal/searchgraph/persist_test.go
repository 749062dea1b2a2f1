package searchgraph

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"qint/internal/binio"
	"qint/internal/learning"
	"qint/internal/steiner"
)

// buildRichGraph creates a graph exercising every node and edge kind a base
// graph holds (keyword and value nodes live in query overlays).
func buildRichGraph() *Graph {
	g := New(learning.Vector{"default": 0.1, "fk": 0.9, "mismatch": 1})
	g.AddForeignKeyEdge(ref("ip.entry2pub", "entry_ac"), ref("ip.entry", "entry_ac"))
	g.AddAssociationEdge(ref("go.term", "acc"), ref("ip.interpro2go", "go_id"),
		learning.Vector{"matcher:mad:bin4": 1})
	return g
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := buildRichGraph()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
			g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges())
	}
	// Node identities and lookups survive.
	for i := 0; i < g.NumNodes(); i++ {
		a, b := g.Node(steiner.NodeID(i)), g2.Node(steiner.NodeID(i))
		if a.Kind != b.Kind || a.Label() != b.Label() {
			t.Errorf("node %d: %v vs %v", i, a.Label(), b.Label())
		}
	}
	if g2.LookupRelation("ip.entry") < 0 {
		t.Error("relation lookup lost")
	}
	if g2.LookupAttribute(ref("go.term", "acc")) < 0 {
		t.Error("attribute lookup lost")
	}
	if len(g2.AssociationList()) != len(g.AssociationList()) {
		t.Errorf("%d association edges, saved %d", len(g2.AssociationList()), len(g.AssociationList()))
	}
	// A re-added association pair merges into the loaded edge.
	if id := g2.AddAssociationEdge(ref("ip.interpro2go", "go_id"), ref("go.term", "acc"), nil); g2.Edge(id).Kind != EdgeAssociation || g2.NumEdges() != g.NumEdges() {
		t.Errorf("association registry lost: re-add returned edge %d, %d edges", id, g2.NumEdges())
	}
	// Costs match edge-for-edge.
	for i := 0; i < g.NumEdges(); i++ {
		id := steiner.EdgeID(i)
		if g.Cost(id) != g2.Cost(id) {
			t.Errorf("edge %d cost %v vs %v", i, g.Cost(id), g2.Cost(id))
		}
	}
	// Weights survive.
	if g2.Weights()["fk"] != 0.9 {
		t.Errorf("weights lost: %v", g2.Weights())
	}
}

func TestSaveLoadSecondGeneration(t *testing.T) {
	// Load → mutate → save → load again: ids must stay stable.
	g := buildRichGraph()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	g2.AddAssociationEdge(ref("ip.pub", "title"), ref("ip.entry", "name"),
		learning.Vector{"matcher:meta:bin2": 1})
	var buf2 bytes.Buffer
	if err := g2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	g3, err := Load(buf2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge count drift: %d vs %d", g3.NumEdges(), g2.NumEdges())
	}
	if len(g3.AssociationList()) != 2 {
		t.Errorf("associations = %d, want 2", len(g3.AssociationList()))
	}
}

// rawSection spells a graph section out field by field, in Save's layout,
// so a test can write structures Save never does.
type rawSection struct {
	magic   string
	weights []rawWeight
	names   []string
	nodes   []rawNode
	edges   []rawEdge
}

type rawWeight struct {
	name string
	x    float64
}

type rawNode struct {
	kind uint64
	s    string // a relation's name or an attribute's reference
}

type rawEdge struct {
	kind, u, v, fixed uint64
	a, b              string // written for a foreign-key edge only
	feats             []rawFeat
}

type rawFeat struct {
	index uint64
	x     float64
}

func (s rawSection) bytes() []byte {
	var buf bytes.Buffer
	b := binio.NewWriter(&buf)
	b.Raw(s.magic)
	b.Uvarint(uint64(len(s.weights)))
	for _, w := range s.weights {
		b.Str(w.name)
		b.Float64(w.x)
	}
	b.Uvarint(uint64(len(s.names)))
	for _, n := range s.names {
		b.Str(n)
	}
	b.Uvarint(uint64(len(s.nodes)))
	for _, n := range s.nodes {
		b.Uvarint(n.kind)
		b.Str(n.s)
	}
	b.Uvarint(uint64(len(s.edges)))
	for _, e := range s.edges {
		b.Uvarint(e.kind)
		b.Uvarint(e.u)
		b.Uvarint(e.v)
		b.Uvarint(e.fixed)
		if e.kind == uint64(EdgeForeignKey) {
			b.Str(e.a)
			b.Str(e.b)
		}
		b.Uvarint(uint64(len(e.feats)))
		for _, f := range e.feats {
			b.Uvarint(f.index)
			b.Float64(f.x)
		}
	}
	if err := b.Flush(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// validRaw is a well-formed section: two relations joined by a foreign
// key, and one association edge between two attributes of them.
func validRaw() rawSection {
	return rawSection{
		magic:   graphBinMagic,
		weights: []rawWeight{{"default", 0.1}, {"fk", 0.9}},
		names:   []string{"default", "fk", "rel:go.term"},
		nodes: []rawNode{
			{uint64(KindRelation), "go.term"}, {uint64(KindAttribute), "go.term.acc"},
			{uint64(KindRelation), "ip.x"}, {uint64(KindAttribute), "ip.x.id"},
		},
		edges: []rawEdge{
			{kind: uint64(EdgeAttrRel), u: 1, v: 0, fixed: 1},
			{kind: uint64(EdgeAttrRel), u: 3, v: 2, fixed: 1},
			{kind: uint64(EdgeForeignKey), u: 2, v: 0, a: "ip.x.id", b: "go.term.acc", feats: []rawFeat{{0, 1}, {1, 1}}},
			{kind: uint64(EdgeAssociation), u: 1, v: 3, feats: []rawFeat{{0, 1}, {2, 0.5}}},
		},
	}
}

// TestLoadRejectsGarbage: the well-formed raw section loads and re-encodes
// to itself, and each case, one hostile structure apiece, is refused.
func TestLoadRejectsGarbage(t *testing.T) {
	good := validRaw().bytes()
	g, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := g.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), good) {
		t.Fatal("the well-formed raw section does not re-encode to itself")
	}

	for _, tc := range []struct {
		name string
		edit func(s *rawSection)
	}{
		{"another version's magic", func(s *rawSection) { s.magic = "QGRFb2\n\n" }},
		{"weights out of name order", func(s *rawSection) { s.weights[0].name = "zzz" }},
		{"a weight twice", func(s *rawSection) { s.weights[1].name = "default" }},
		{"a dictionary name twice", func(s *rawSection) { s.names[2] = "default" }},
		{"a dictionary name no edge uses", func(s *rawSection) { s.names = append(s.names, "unused") }},
		{"dictionary out of first-use order", func(s *rawSection) { s.edges[2].feats = []rawFeat{{1, 1}} }},
		{"feature index past the dictionary", func(s *rawSection) { s.edges[3].feats[1].index = 3 }},
		{"features out of name order", func(s *rawSection) {
			s.edges[3].feats = []rawFeat{{2, 0.5}, {0, 1}}
		}},
		{"a feature twice", func(s *rawSection) { s.edges[3].feats = []rawFeat{{0, 1}, {0, 1}, {2, 1}} }},
		{"endpoint out of range", func(s *rawSection) { s.edges[0].v = 5 }},
		{"malformed attribute reference", func(s *rawSection) { s.nodes[1].s = "malformed" }},
		{"attribute reference without a source", func(s *rawSection) { s.nodes[1].s = "term.acc" }},
		{"malformed foreign-key reference", func(s *rawSection) { s.edges[2].b = "acc" }},
		// keyword and value nodes, and their edges, belong to query overlays
		{"a keyword node", func(s *rawSection) { s.nodes[2] = rawNode{uint64(KindKeyword), "membrane"} }},
		{"a value node", func(s *rawSection) { s.nodes[2] = rawNode{uint64(KindValue), "go.term.name"} }},
		{"a keyword edge", func(s *rawSection) {
			s.edges[1] = rawEdge{kind: uint64(EdgeKeyword), u: 0, v: 1, feats: []rawFeat{{0, 0.2}}}
		}},
		{"a value-attr edge", func(s *rawSection) { s.edges[1] = rawEdge{kind: uint64(EdgeValueAttr), u: 0, v: 1, fixed: 1} }},
		// an edge kind the graph does not know
		{"an unknown edge kind", func(s *rawSection) { s.edges[1].kind = 5 }},
		{"a second node for one relation", func(s *rawSection) { s.nodes[2].s = "go.term" }},
		{"a second node for one attribute", func(s *rawSection) { s.nodes[3].s = "go.term.acc" }},
		// an association edge whose endpoints are not its pair's attributes
		{"an association edge from a relation", func(s *rawSection) { s.edges[3].u = 0 }},
		// two association edges for one pair, in either order
		{"a second association edge for one pair", func(s *rawSection) {
			s.edges = append(s.edges, rawEdge{kind: uint64(EdgeAssociation), u: 3, v: 1, feats: []rawFeat{{0, 1}}})
		}},
		{"a fixed edge with features", func(s *rawSection) { s.edges[0].feats = []rawFeat{{0, 1}} }},
		{"a fixed flag other than 0 and 1", func(s *rawSection) { s.edges[0].fixed = 2 }},
	} {
		s := validRaw()
		tc.edit(&s)
		if _, err := Load(s.bytes()); err == nil {
			t.Errorf("%s: section accepted", tc.name)
		}
	}

	for _, in := range [][]byte{nil, []byte("not a graph"), append(slices.Clone(good), 0)} {
		if _, err := Load(in); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
	// A varint longer than its minimal form: the weight count 2, the
	// byte after the magic, as 0x82 0x00.
	n := len(graphBinMagic)
	overlong := slices.Concat(good[:n], []byte{0x82, 0}, good[n+1:])
	if _, err := Load(overlong); err == nil {
		t.Error("a non-minimal varint accepted")
	}
}

// TestLoadRejectsTruncatedSection: every proper prefix of a valid section
// is refused.
func TestLoadRejectsTruncatedSection(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRichGraph().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for n := range len(data) {
		if _, err := Load(data[:n]); err == nil {
			t.Errorf("section truncated to %d of %d bytes accepted", n, len(data))
		}
	}
}

// TestLoadRefusesJSONSection: a section in the retired JSON format is
// refused by name.
func TestLoadRefusesJSONSection(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRichGraph().saveJSONOracle(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Load(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("JSON section: err = %v, want a refusal naming the JSON format", err)
	}
}

// FuzzLoadGraph: any input is refused or loads a graph that re-encodes to
// the same bytes; Load never panics, and Count bounds every allocation by
// the input's length.
func FuzzLoadGraph(f *testing.F) {
	// Small fixtures keep the fuzzer's minimisation quick: the rich graph,
	// and the rich graph after a replayed association and weight delta.
	replayed := buildRichGraph()
	replayed.RestoreAssociationEdge(ref("ip.entry", "name"), ref("go.term", "name"), learning.Vector{"default": 1, "handcoded": 1})
	replayed.ApplyWeightDelta(DiffWeights(replayed.Weights(), learning.Vector{"default": 0.2, "handcoded": 0.4}))
	replayed.RepriceEdges()
	for _, g := range []*Graph{buildRichGraph(), replayed} {
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(validRaw().bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted section re-encodes differently:\n in % x\nout % x", data, buf.Bytes())
		}
	})
}
