package mad

import (
	"fmt"
	"testing"

	"qint/internal/relstore"
)

// overlapCatalog builds three relations where go.term.acc overlaps
// ip.interpro2go.go_id heavily, and ip.entry.name overlaps nothing.
func overlapCatalog(t *testing.T) *relstore.Catalog {
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
	var termRows, i2gRows [][]string
	for i := 0; i < 20; i++ {
		acc := fmt.Sprintf("GO:%07d", i)
		termRows = append(termRows, []string{acc, fmt.Sprintf("term %d", i)})
		if i < 15 { // 15/20 overlap
			i2gRows = append(i2gRows, []string{fmt.Sprintf("IPR%06d", i), acc})
		}
	}
	add(&relstore.Relation{Source: "go", Name: "term",
		Attributes: []relstore.Attribute{{Name: "acc"}, {Name: "name"}}}, termRows)
	add(&relstore.Relation{Source: "ip", Name: "interpro2go",
		Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "go_id"}}}, i2gRows)
	add(&relstore.Relation{Source: "ip", Name: "entry",
		Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "name"}}},
		[][]string{{"IPR000001", "Kringle"}, {"IPR000002", "Zinc finger"}})
	return c
}

func TestMatcherFindsValueOverlapAlignment(t *testing.T) {
	c := overlapCatalog(t)
	m := New()
	got := m.Match(c, c.Relation("go.term"), c.Relation("ip.interpro2go"))
	if len(got) == 0 {
		t.Fatal("expected alignments from value overlap")
	}
	best := got[0]
	pair := map[string]bool{best.A.String(): true, best.B.String(): true}
	if !pair["go.term.acc"] || !pair["ip.interpro2go.go_id"] {
		t.Errorf("best alignment should be acc↔go_id, got %v", best)
	}
	if best.Confidence <= 0 || best.Confidence > 1 {
		t.Errorf("confidence out of range: %v", best.Confidence)
	}
}

func TestMatcherNoAlignmentWithoutOverlap(t *testing.T) {
	c := overlapCatalog(t)
	m := New()
	// go.term and ip.entry share no values at all on (acc,name)x(entry_ac,name)
	// except entry_ac values appear in interpro2go too — but between these two
	// relations directly, name columns are disjoint. acc vs entry_ac disjoint.
	got := m.Match(c, c.Relation("go.term"), c.Relation("ip.entry"))
	for _, al := range got {
		if al.Confidence > 0.3 {
			t.Errorf("unexpected confident alignment without overlap: %v", al)
		}
	}
}

func TestMatcherTransitiveAlignment(t *testing.T) {
	// A.x overlaps B.y, B.y overlaps C.z; A.x and C.z share ~nothing.
	c := relstore.NewCatalog()
	add := func(rel *relstore.Relation, rows [][]string) {
		tb, _ := relstore.NewTable(rel, rows)
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	var aRows, bRows, cRows [][]string
	for i := 0; i < 10; i++ {
		aRows = append(aRows, []string{fmt.Sprintf("K%03da", i)})
	}
	for i := 5; i < 15; i++ {
		bRows = append(bRows, []string{fmt.Sprintf("K%03da", i)}) // overlap a: 5..9
	}
	for i := 10; i < 20; i++ {
		cRows = append(cRows, []string{fmt.Sprintf("K%03da", i)}) // overlap b: 10..14
	}
	add(&relstore.Relation{Source: "s", Name: "a", Attributes: []relstore.Attribute{{Name: "x"}}}, aRows)
	add(&relstore.Relation{Source: "s", Name: "b", Attributes: []relstore.Attribute{{Name: "y"}}}, bRows)
	add(&relstore.Relation{Source: "s", Name: "c", Attributes: []relstore.Attribute{{Name: "z"}}}, cRows)

	m := New()
	m.Params.Iterations = 10
	got := m.Match(c, c.Relation("s.a"), c.Relation("s.c"))
	if len(got) == 0 {
		t.Fatal("transitive overlap should produce an alignment between a.x and c.z")
	}
}

func TestMatcherNumericValuesIgnored(t *testing.T) {
	c := relstore.NewCatalog()
	add := func(rel *relstore.Relation, rows [][]string) {
		tb, _ := relstore.NewTable(rel, rows)
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	var rows1, rows2 [][]string
	for i := 0; i < 10; i++ {
		rows1 = append(rows1, []string{fmt.Sprint(i)})
		rows2 = append(rows2, []string{fmt.Sprint(i)})
	}
	add(&relstore.Relation{Source: "s", Name: "r1", Attributes: []relstore.Attribute{{Name: "count"}}}, rows1)
	add(&relstore.Relation{Source: "s", Name: "r2", Attributes: []relstore.Attribute{{Name: "age"}}}, rows2)
	m := New()
	if got := m.Match(c, c.Relation("s.r1"), c.Relation("s.r2")); len(got) != 0 {
		t.Errorf("numeric-only overlap should be pruned (§5.2.1): %v", got)
	}
}

func TestMatcherCacheInvalidation(t *testing.T) {
	c := overlapCatalog(t)
	m := New()
	_ = m.Match(c, c.Relation("go.term"), c.Relation("ip.interpro2go"))
	if m.cache == nil {
		t.Fatal("propagation should be cached")
	}
	first := m.cache
	_ = m.Match(c, c.Relation("go.term"), c.Relation("ip.interpro2go"))
	if m.cache != first {
		t.Error("an unchanged catalog should reuse the cached propagation")
	}
	// Growing the catalog invalidates via the relation-count check.
	tb, _ := relstore.NewTable(&relstore.Relation{Source: "new", Name: "r",
		Attributes: []relstore.Attribute{{Name: "a"}}}, nil)
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	old := m.cache
	_ = m.Match(c, c.Relation("go.term"), c.Relation("ip.interpro2go"))
	if m.cache == old {
		t.Error("cache should refresh after catalog growth")
	}
}

func TestMatcherNilInputs(t *testing.T) {
	m := New()
	c := overlapCatalog(t)
	if got := m.Match(nil, c.Relation("go.term"), c.Relation("ip.entry")); got != nil {
		t.Error("nil catalog should return nil")
	}
	if got := m.Match(c, nil, c.Relation("ip.entry")); got != nil {
		t.Error("nil relation should return nil")
	}
}
