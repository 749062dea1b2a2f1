package searchgraph

import (
	"bytes"
	"strings"
	"testing"

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
	g2, err := Load(&buf)
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
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2.AddAssociationEdge(ref("ip.pub", "title"), ref("ip.entry", "name"),
		learning.Vector{"matcher:meta:bin2": 1})
	var buf2 bytes.Buffer
	if err := g2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	g3, err := Load(&buf2)
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

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"version": 99}`,
		`{"version":1,"nodes":[{"kind":0}],"edges":[{"kind":1,"u":0,"v":5}]}`,
		`{"version":1,"nodes":[{"kind":1,"ref":"malformed"}],"edges":[]}`,
		// keyword and value nodes, and their edges, belong to query overlays
		`{"version":1,"nodes":[{"kind":3,"value":"membrane"}],"edges":[]}`,
		`{"version":1,"nodes":[{"kind":2,"ref":"go.term.name","value":"x"}],"edges":[]}`,
		`{"version":1,"nodes":[{"kind":0,"rel":"go.term"},{"kind":1,"ref":"go.term.name"}],` +
			`"edges":[{"kind":3,"u":0,"v":1,"features":{"mismatch":0.2}}]}`,
		`{"version":1,"nodes":[{"kind":0,"rel":"go.term"},{"kind":1,"ref":"go.term.name"}],` +
			`"edges":[{"kind":4,"u":0,"v":1,"fixed":true}]}`,
		// an edge kind the graph does not know (mediated mappings are not edges)
		`{"version":1,"nodes":[{"kind":1,"ref":"med.gene.name"},{"kind":1,"ref":"go.term.name"}],` +
			`"edges":[{"kind":5,"u":0,"v":1,"features":{"mapping":1}}]}`,
		// an association edge whose endpoints are not its pair's attributes
		`{"version":1,"nodes":[{"kind":0,"rel":"go.term"},{"kind":1,"ref":"go.term.acc"},{"kind":1,"ref":"ip.x.id"}],` +
			`"edges":[{"kind":2,"u":0,"v":2,"features":{"default":1},"a":"go.term.acc","b":"ip.x.id"}]}`,
		// two association edges for one pair, in either order
		`{"version":1,"nodes":[{"kind":1,"ref":"go.term.acc"},{"kind":1,"ref":"ip.x.id"}],` +
			`"edges":[{"kind":2,"u":0,"v":1,"features":{"default":1},"a":"go.term.acc","b":"ip.x.id"},` +
			`{"kind":2,"u":1,"v":0,"features":{"default":1},"a":"ip.x.id","b":"go.term.acc"}]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}
