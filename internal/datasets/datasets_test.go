package datasets

import (
	"strings"
	"testing"

	"qint/internal/relstore"
)

func TestInterProGOShape(t *testing.T) {
	c := InterProGO()
	if len(c.Tables) != 8 {
		t.Fatalf("tables = %d, want 8 (Figure 9)", len(c.Tables))
	}
	attrs := 0
	for _, tb := range c.Tables {
		attrs += len(tb.Relation.Attributes)
		if len(tb.Relation.ForeignKeys) != 0 {
			t.Errorf("%s declares foreign keys; §5.2 removes them from metadata",
				tb.Relation.QualifiedName())
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s has no data", tb.Relation.QualifiedName())
		}
	}
	if attrs != 28 {
		t.Errorf("attributes = %d, want 28", attrs)
	}
	if len(c.GoldPairs) != 8 || len(c.Gold) != 8 {
		t.Errorf("gold edges = %d/%d, want 8", len(c.GoldPairs), len(c.Gold))
	}
	if len(c.Queries) != 10 {
		t.Errorf("queries = %d, want 10", len(c.Queries))
	}
}

func TestInterProGOGoldEdgesHaveValueOverlap(t *testing.T) {
	c := InterProGO()
	cat := relstore.NewCatalog()
	for _, tb := range c.Tables {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range c.GoldPairs {
		if ov := cat.ValueOverlap(p[0], p[1]); ov == 0 {
			t.Errorf("gold edge %s~%s has zero value overlap; MAD cannot find it",
				p[0], p[1])
		}
	}
}

func TestInterProGOGoldRefsExist(t *testing.T) {
	c := InterProGO()
	cat := relstore.NewCatalog()
	for _, tb := range c.Tables {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range c.GoldPairs {
		for _, ref := range p {
			rel := cat.Relation(ref.Relation)
			if rel == nil || !rel.HasAttr(ref.Attr) {
				t.Errorf("gold reference %s does not exist", ref)
			}
		}
	}
}

func TestInterProGODeterministic(t *testing.T) {
	a, b := InterProGO(), InterProGO()
	for i := range a.Tables {
		if len(a.Tables[i].Rows) != len(b.Tables[i].Rows) {
			t.Fatalf("nondeterministic row count in %s", a.Tables[i].Relation.Name)
		}
		for j := range a.Tables[i].Rows {
			if strings.Join(a.Tables[i].Rows[j], "|") != strings.Join(b.Tables[i].Rows[j], "|") {
				t.Fatalf("nondeterministic row %d of %s", j, a.Tables[i].Relation.Name)
			}
		}
	}
}

func TestInterProGOMethodEntryNameOverlap(t *testing.T) {
	// The paper (§5.2.1) points out method.name and entry.name share
	// hundreds of distinct values — a "wrong but useful" alignment. Our
	// generation preserves that property.
	c := InterProGO()
	cat := relstore.NewCatalog()
	for _, tb := range c.Tables {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	ov := cat.ValueOverlap(
		relstore.AttrRef{Relation: "interpro.method", Attr: "name"},
		relstore.AttrRef{Relation: "interpro.entry", Attr: "name"})
	if ov == 0 {
		t.Error("method.name and entry.name should share values")
	}
}

func TestGBCOShape(t *testing.T) {
	c := GBCO()
	if len(c.Tables) != NumGBCORelations {
		t.Fatalf("relations = %d, want %d", len(c.Tables), NumGBCORelations)
	}
	attrs := 0
	sources := make(map[string]bool)
	for _, tb := range c.Tables {
		attrs += len(tb.Relation.Attributes)
		sources[tb.Relation.Source] = true
		if err := tb.Relation.Validate(); err != nil {
			t.Errorf("invalid relation: %v", err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s has no data", tb.Relation.QualifiedName())
		}
	}
	if attrs != NumGBCOAttributes {
		t.Errorf("attributes = %d, want %d", attrs, NumGBCOAttributes)
	}
	if len(sources) != NumGBCORelations {
		t.Errorf("each relation should be its own source, got %d sources", len(sources))
	}
}

func TestGBCOForeignKeysResolve(t *testing.T) {
	c := GBCO()
	cat := relstore.NewCatalog()
	for _, tb := range c.Tables {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	for _, tb := range c.Tables {
		for _, fk := range tb.Relation.ForeignKeys {
			target := cat.Relation(fk.ToRelation)
			if target == nil {
				t.Errorf("%s: FK target %s missing", tb.Relation.QualifiedName(), fk.ToRelation)
				continue
			}
			if !target.HasAttr(fk.ToAttr) {
				t.Errorf("%s: FK target attr %s.%s missing",
					tb.Relation.QualifiedName(), fk.ToRelation, fk.ToAttr)
			}
			// Keys must overlap for joins to produce rows.
			from := relstore.AttrRef{Relation: tb.Relation.QualifiedName(), Attr: fk.FromAttr}
			to := relstore.AttrRef{Relation: fk.ToRelation, Attr: fk.ToAttr}
			if cat.ValueOverlap(from, to) == 0 {
				t.Errorf("FK %s -> %s has zero value overlap", from, to)
			}
		}
	}
}

func TestGBCOTrials(t *testing.T) {
	c := GBCO()
	if len(c.Trials) != 16 {
		t.Fatalf("trials = %d, want 16", len(c.Trials))
	}
	total := 0
	rels := make(map[string]bool)
	for _, tb := range c.Tables {
		rels[tb.Relation.QualifiedName()] = true
	}
	srcs := make(map[string]bool)
	for _, tb := range c.Tables {
		srcs[tb.Relation.Source] = true
	}
	for i, tr := range c.Trials {
		total += len(tr.NewSources)
		if tr.Keywords == "" {
			t.Errorf("trial %d has no keywords", i)
		}
		for _, br := range tr.BaseRelations {
			if !rels[br] {
				t.Errorf("trial %d: unknown base relation %s", i, br)
			}
		}
		for _, ns := range tr.NewSources {
			if !srcs[ns] {
				t.Errorf("trial %d: unknown new source %s", i, ns)
			}
		}
		// New sources must not appear among base relations.
		for _, ns := range tr.NewSources {
			for _, br := range tr.BaseRelations {
				if strings.HasPrefix(br, ns+".") {
					t.Errorf("trial %d: new source %s also in base", i, ns)
				}
			}
		}
	}
	if total != 40 {
		t.Errorf("total source introductions = %d, want 40 (§5.1)", total)
	}
}

func TestSyntheticRelations(t *testing.T) {
	rels := SyntheticRelations(20, 7)
	if len(rels) != 20 {
		t.Fatalf("got %d relations", len(rels))
	}
	seen := make(map[string]bool)
	for _, tb := range rels {
		if len(tb.Relation.Attributes) != 2 {
			t.Errorf("%s: %d attributes, want 2", tb.Relation.QualifiedName(),
				len(tb.Relation.Attributes))
		}
		if seen[tb.Relation.QualifiedName()] {
			t.Errorf("duplicate source %s", tb.Relation.QualifiedName())
		}
		seen[tb.Relation.QualifiedName()] = true
	}
	// Deterministic per seed.
	again := SyntheticRelations(20, 7)
	for i := range rels {
		if rels[i].Relation.Attributes[0].Name != again[i].Relation.Attributes[0].Name {
			t.Error("same seed should reproduce the same schemas")
		}
	}
}
