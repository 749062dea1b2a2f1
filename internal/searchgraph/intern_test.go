package searchgraph

import (
	"bytes"
	"maps"
	"testing"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// checkInterned fails unless every learnable edge of g costs exactly
// EdgeCost(weights, Features), its interned entries render back to its
// Features in strictly ascending name order with their ‖f‖², and
// LearnableFeatures lists those entries in edge-id order; fixed edges cost
// zero and carry none.
func checkInterned(t *testing.T, step string, g *Graph) {
	t.Helper()
	dict, learnable := g.LearnableFeatures()
	n := 0
	for i := 0; i < g.NumEdges(); i++ {
		e, f := g.Edge(steiner.EdgeID(i)), g.s.interned[i]
		if e.Fixed {
			if f != nil || g.Cost(e.ID) != 0 {
				t.Fatalf("%s: fixed edge %d costs %v, interned %v", step, i, g.Cost(e.ID), f)
			}
			continue
		}
		if n >= len(learnable) || learnable[n] != f {
			t.Fatalf("%s: learnable edge %d is not entry %d of LearnableFeatures", step, i, n)
		}
		n++
		if got, want := g.Cost(e.ID), EdgeCost(g.Weights(), e.Features); got != want {
			t.Fatalf("%s: edge %d costs %v, EdgeCost %v", step, i, got, want)
		}
		v, n2, prev := learning.Vector{}, 0.0, ""
		for j, en := range f.Entries {
			name := dict.Name(en.ID)
			if j > 0 && name <= prev {
				t.Fatalf("%s: edge %d entries out of name order: %q after %q", step, i, name, prev)
			}
			v[name], n2, prev = en.X, n2+en.X*en.X, name
		}
		if !maps.Equal(v, e.Features) || n2 != f.Norm2 {
			t.Fatalf("%s: edge %d entries render %v (‖f‖² %v), features %v (‖f‖² %v)", step, i, v, n2, e.Features, f.Norm2)
		}
	}
	if n != len(learnable) || len(g.s.interned) != g.NumEdges() {
		t.Fatalf("%s: %d learnable edges, LearnableFeatures lists %d", step, n, len(learnable))
	}
}

// TestInternedFeaturesTrackEdges: through every way an edge's features or
// the weights change — foreign keys, associations merged by a second
// matcher, replayed associations, Load, SetWeights, replayed weight deltas
// and Reset — each learnable edge's interned features stay its features and
// its cost stays EdgeCost of them.
func TestInternedFeaturesTrackEdges(t *testing.T) {
	w := learning.Vector{
		"default": 0.3, "fk": 0.7, "rel:ip.entry": 0.11, "rel:go.term": -0.05,
		"matcher:mad:bin2": 0.4, "matcher:mad:bin4": 0.13, "matcher:meta:bin3": 0.27,
		"matcher:meta:absent": 0.9, "handcoded": -0.2,
	}
	g := Build(buildTestCatalog(t), w)
	checkInterned(t, "build", g)

	acc, goID := ref("go.term", "acc"), ref("ip.interpro2go", "go_id")
	name, entry := ref("go.term", "name"), ref("ip.entry", "name")
	g.AddAssociationEdge(acc, goID, learning.Vector{"matcher:mad:bin2": 1, "matcher:meta:absent": 1})
	checkInterned(t, "association", g)
	g.AddAssociationEdge(goID, acc, learning.Vector{"matcher:meta:bin3": 1})
	checkInterned(t, "second matcher", g)
	g.AddAssociationEdge(acc, goID, learning.Vector{"matcher:mad:bin4": 1})
	checkInterned(t, "higher bin", g)
	if f := g.Edge(g.association(acc, goID)).Features; f["matcher:mad:bin4"] != 1 || f["matcher:mad:bin2"] != 0 || f["matcher:meta:absent"] != 0 {
		t.Fatalf("merged features %v", f)
	}

	snap := g.Snapshot()
	g.RestoreAssociationEdge(goID, acc, learning.Vector{"default": 1, "handcoded": 2})
	g.RestoreAssociationEdge(name, entry, learning.Vector{"default": 1, "rel:go.term": 1, "rel:ip.entry": 1})
	checkInterned(t, "restore", g)

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkInterned(t, "load", loaded)

	w2 := maps.Clone(w)
	w2["fk"], w2["edge:fk:ip.interpro2go.entry_ac->ip.entry.entry_ac"] = 0.123456789, 0.987654321
	g.SetWeights(w2)
	checkInterned(t, "set weights", g)
	loaded.SetWeights(w2)
	checkInterned(t, "set weights after load", loaded)

	g.ApplyWeightDelta(DiffWeights(w2, learning.Vector{"default": 0.77, "handcoded": 0.31, "rel:go.term": 0.5}))
	g.RepriceEdges()
	checkInterned(t, "replayed delta", g)

	g.Reset(snap)
	checkInterned(t, "reset", g)
	g.AddAssociationEdge(name, entry, learning.Vector{"matcher:mad:bin1": 1})
	checkInterned(t, "association after reset", g)
}

// TestAssociationPairIsOneEdge: an attribute pair has at most one
// association edge. (a, b) then (b, a) merges into the first edge, on a
// fresh graph and after Load, and a replayed association replaces the
// edge's features rather than merging into them.
func TestAssociationPairIsOneEdge(t *testing.T) {
	a, b := ref("ip.interpro2go", "go_id"), ref("go.term", "acc")
	g := New(defaultWeights())
	id := g.AddAssociationEdge(a, b, learning.Vector{"matcher:mad:bin4": 1})
	n := g.NumEdges()
	if got := g.AddAssociationEdge(b, a, learning.Vector{"matcher:meta:bin3": 1}); got != id || g.NumEdges() != n {
		t.Fatalf("(b, a) made edge %d of %d, want a merge into %d of %d", got, g.NumEdges(), id, n)
	}
	if f := g.Edge(id).Features; f["matcher:mad:bin4"] != 1 || f["matcher:meta:bin3"] != 1 {
		t.Fatalf("merged features %v", f)
	}

	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 1}, {1, 0}} {
		ends := [2]relstore.AttrRef{a, b}
		if got := g2.AddAssociationEdge(ends[pair[0]], ends[pair[1]], learning.Vector{"matcher:meta:bin4": 1}); got != id || g2.NumEdges() != n {
			t.Fatalf("after Load, %v made edge %d of %d, want a merge into %d of %d", pair, got, g2.NumEdges(), id, n)
		}
	}
	replayed := learning.Vector{"default": 1, "handcoded": 1}
	if got := g2.RestoreAssociationEdge(a, b, replayed); got != id || g2.NumEdges() != n {
		t.Fatalf("replay made edge %d of %d, want %d of %d", got, g2.NumEdges(), id, n)
	}
	if f := g2.Edge(id).Features; !maps.Equal(f, replayed) {
		t.Fatalf("replayed features %v, want %v", f, replayed)
	}
	checkInterned(t, "replayed merge", g2)
	if len(g2.AssociationList()) != 1 {
		t.Fatalf("association list %v", g2.AssociationList())
	}
}
