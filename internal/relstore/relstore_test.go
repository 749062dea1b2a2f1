package relstore

import (
	"slices"
	"strings"
	"testing"
)

// testCatalog builds a tiny GO/InterPro-flavoured catalog used across tests:
//
//	go.term(acc, name)
//	ip.interpro2go(entry_ac, go_id)   FK entry_ac -> ip.entry.entry_ac
//	ip.entry(entry_ac, name)
func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := NewCatalog()
	add := func(rel *Relation, rows [][]string) {
		tb, err := NewTable(rel, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	add(&Relation{
		Source: "go", Name: "term",
		Attributes: []Attribute{{Name: "acc"}, {Name: "name"}},
	}, [][]string{
		{"GO:0005886", "plasma membrane"},
		{"GO:0005634", "nucleus"},
		{"GO:0005737", "cytoplasm"},
	})
	add(&Relation{
		Source: "ip", Name: "interpro2go",
		Attributes: []Attribute{{Name: "entry_ac"}, {Name: "go_id"}},
		ForeignKeys: []ForeignKey{
			{FromAttr: "entry_ac", ToRelation: "ip.entry", ToAttr: "entry_ac"},
		},
	}, [][]string{
		{"IPR000001", "GO:0005886"},
		{"IPR000002", "GO:0005634"},
		{"IPR000003", "GO:0005886"},
	})
	add(&Relation{
		Source: "ip", Name: "entry",
		Attributes: []Attribute{{Name: "entry_ac"}, {Name: "name"}},
	}, [][]string{
		{"IPR000001", "Kringle domain"},
		{"IPR000002", "Zinc finger"},
		{"IPR000003", "Membrane protein"},
	})
	return c
}

func TestRelationValidate(t *testing.T) {
	bad := []*Relation{
		{Source: "", Name: "x", Attributes: []Attribute{{Name: "a"}}},
		{Source: "s", Name: "", Attributes: []Attribute{{Name: "a"}}},
		{Source: "s", Name: "x", Attributes: []Attribute{{Name: ""}}},
		{Source: "s", Name: "x", Attributes: []Attribute{{Name: "a"}, {Name: "a"}}},
		{Source: "s", Name: "x", Attributes: []Attribute{{Name: "a"}},
			ForeignKeys: []ForeignKey{{FromAttr: "missing", ToRelation: "s.y", ToAttr: "b"}}},
		{Source: "s", Name: "x", Attributes: []Attribute{{Name: "a"}},
			ForeignKeys: []ForeignKey{{FromAttr: "a", ToRelation: "", ToAttr: "b"}}},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, r)
		}
	}
	good := &Relation{Source: "s", Name: "x", Attributes: []Attribute{{Name: "a"}, {Name: "b"}},
		ForeignKeys: []ForeignKey{{FromAttr: "a", ToRelation: "s.y", ToAttr: "c"}}}
	if err := good.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestAttrRefRoundTrip(t *testing.T) {
	ref := AttrRef{Relation: "ip.entry", Attr: "entry_ac"}
	s := ref.String()
	back, err := ParseAttrRef(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != ref {
		t.Errorf("round trip: got %v, want %v", back, ref)
	}
	for _, bad := range []string{"", "noqualifier", "a.b", ".x.y", "x.y."} {
		if _, err := ParseAttrRef(bad); err == nil {
			t.Errorf("ParseAttrRef(%q): expected error", bad)
		}
	}
}

func TestNewTableRowWidth(t *testing.T) {
	rel := &Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "a"}, {Name: "b"}}}
	if _, err := NewTable(rel, [][]string{{"only-one"}}); err == nil {
		t.Error("expected row-width error")
	}
	if _, err := NewTable(rel, [][]string{{"x", "y"}}); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCatalogBasics(t *testing.T) {
	c := testCatalog(t)
	if c.NumRelations() != 3 {
		t.Errorf("NumRelations = %d, want 3", c.NumRelations())
	}
	if c.NumAttributes() != 6 {
		t.Errorf("NumAttributes = %d, want 6", c.NumAttributes())
	}
	srcs := c.Sources()
	if len(srcs) != 2 || srcs[0] != "go" || srcs[1] != "ip" {
		t.Errorf("Sources = %v", srcs)
	}
	if len(c.SourceRelations("ip")) != 2 {
		t.Errorf("ip should have 2 relations")
	}
	if c.Relation("go.term") == nil || c.Relation("nope.x") != nil {
		t.Error("Relation lookup broken")
	}
	if len(c.AttrRefs()) != 6 {
		t.Errorf("AttrRefs = %d, want 6", len(c.AttrRefs()))
	}
	// duplicate registration rejected
	tb, _ := NewTable(&Relation{Source: "go", Name: "term", Attributes: []Attribute{{Name: "acc"}}}, nil)
	if err := c.AddTable(tb); err == nil {
		t.Error("duplicate AddTable should fail")
	}
}

func TestValueSetAndOverlap(t *testing.T) {
	c := testCatalog(t)
	goAcc := AttrRef{Relation: "go.term", Attr: "acc"}
	goID := AttrRef{Relation: "ip.interpro2go", Attr: "go_id"}
	if vs := c.Values(goAcc); !slices.Equal(vs, scanValues(c, goAcc)) || len(vs) != 3 {
		t.Errorf("Values(go.term.acc) = %q, want the 3 distinct values sorted", vs)
	}
	// go_id has GO:0005886 (x2 -> 1 distinct) and GO:0005634; both in acc.
	if got := c.ValueOverlap(goAcc, goID); got != 2 {
		t.Errorf("ValueOverlap = %d, want 2", got)
	}
	if got := c.ValueOverlap(goAcc, AttrRef{Relation: "ip.entry", Attr: "name"}); got != 0 {
		t.Errorf("disjoint overlap = %d, want 0", got)
	}
	if c.Values(AttrRef{Relation: "missing.rel", Attr: "a"}) != nil {
		t.Error("missing relation should give nil values")
	}
}

func TestFindValues(t *testing.T) {
	// The contract must hold identically through the inverted value index
	// (FindValues) and the reference scan (the test oracle scanFindValues).
	for _, mode := range []struct {
		name string
		find func(*Catalog, string) []ValueHit
	}{{"index", (*Catalog).FindValues}, {"scan", scanFindValues}} {
		t.Run(mode.name, func(t *testing.T) {
			c := testCatalog(t)
			find := func(kw string) []ValueHit { return mode.find(c, kw) }
			hits := find("membrane")
			// "plasma membrane" in go.term.name and "Membrane protein" in ip.entry.name
			if len(hits) != 2 {
				t.Fatalf("FindValues(membrane) = %v, want 2 hits", hits)
			}
			if hits[0].Ref.Relation != "go.term" || hits[1].Ref.Relation != "ip.entry" {
				t.Errorf("hit order/content wrong: %v", hits)
			}
			if hits := find(""); hits != nil {
				t.Errorf("empty keyword should match nothing, got %v", hits)
			}
			// Value appearing in multiple rows reports row count.
			hits = find("GO:0005886")
			var found bool
			for _, h := range hits {
				if h.Ref.Relation == "ip.interpro2go" && h.Rows != 2 {
					t.Errorf("GO:0005886 appears in 2 rows of interpro2go, got %d", h.Rows)
				}
				if h.Ref.Relation == "ip.interpro2go" {
					found = true
				}
			}
			if !found {
				t.Error("expected a hit in ip.interpro2go")
			}
		})
	}
}

func TestExecuteSingleAtomSelection(t *testing.T) {
	c := testCatalog(t)
	q := &ConjunctiveQuery{
		Atoms:   []Atom{{Relation: "go.term", Alias: "t"}},
		Selects: []SelCond{{Alias: "t", Attr: "name", Value: "plasma membrane"}},
		Project: []ProjCol{{Alias: "t", Attr: "acc", As: "acc"}, {Alias: "t", Attr: "name", As: "name"}},
	}
	rs, err := Execute(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0] != "GO:0005886" {
		t.Errorf("rows = %v, want plasma membrane row", rs.Rows)
	}
}

func TestExecuteJoin(t *testing.T) {
	c := testCatalog(t)
	q := &ConjunctiveQuery{
		Atoms: []Atom{
			{Relation: "go.term", Alias: "t"},
			{Relation: "ip.interpro2go", Alias: "x"},
			{Relation: "ip.entry", Alias: "e"},
		},
		Joins: []JoinCond{
			{LeftAlias: "t", LeftAttr: "acc", RightAlias: "x", RightAttr: "go_id"},
			{LeftAlias: "x", LeftAttr: "entry_ac", RightAlias: "e", RightAttr: "entry_ac"},
		},
		Selects: []SelCond{{Alias: "t", Attr: "name", Value: "plasma membrane"}},
		Project: []ProjCol{
			{Alias: "t", Attr: "name", As: "term"},
			{Alias: "e", Attr: "name", As: "entry"},
		},
	}
	rs, err := Execute(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v, want 2 (IPR000001, IPR000003)", rs.Rows)
	}
	entries := []string{rs.Rows[0][1], rs.Rows[1][1]}
	want := map[string]bool{"Kringle domain": true, "Membrane protein": true}
	for _, e := range entries {
		if !want[e] {
			t.Errorf("unexpected entry %q", e)
		}
	}
}

func TestExecuteCrossProductForDisconnectedAtoms(t *testing.T) {
	c := testCatalog(t)
	q := &ConjunctiveQuery{
		Atoms: []Atom{
			{Relation: "go.term", Alias: "t"},
			{Relation: "ip.entry", Alias: "e"},
		},
		Project: []ProjCol{
			{Alias: "t", Attr: "acc", As: "acc"},
			{Alias: "e", Attr: "entry_ac", As: "entry_ac"},
		},
	}
	rs, err := Execute(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 9 {
		t.Errorf("cross product rows = %d, want 9", len(rs.Rows))
	}
}

func TestExecuteProjectionDeduplicates(t *testing.T) {
	c := testCatalog(t)
	// Project only go_id from interpro2go: GO:0005886 appears twice in data
	// but set semantics deduplicate.
	q := &ConjunctiveQuery{
		Atoms:   []Atom{{Relation: "ip.interpro2go", Alias: "x"}},
		Project: []ProjCol{{Alias: "x", Attr: "go_id", As: "go_id"}},
	}
	rs, err := Execute(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("distinct go_ids = %d, want 2", len(rs.Rows))
	}
}

func TestExecuteValidationErrors(t *testing.T) {
	c := testCatalog(t)
	cases := []*ConjunctiveQuery{
		{}, // no atoms
		{Atoms: []Atom{{Relation: "missing.rel", Alias: "m"}}},
		{Atoms: []Atom{{Relation: "go.term", Alias: ""}}},
		{Atoms: []Atom{{Relation: "go.term", Alias: "t"}, {Relation: "go.term", Alias: "t"}}},
		{Atoms: []Atom{{Relation: "go.term", Alias: "t"}},
			Selects: []SelCond{{Alias: "t", Attr: "nope", Value: "x"}}},
		{Atoms: []Atom{{Relation: "go.term", Alias: "t"}},
			Joins: []JoinCond{{LeftAlias: "t", LeftAttr: "acc", RightAlias: "ghost", RightAttr: "x"}}},
		{Atoms: []Atom{{Relation: "go.term", Alias: "t"}},
			Project: []ProjCol{{Alias: "t", Attr: "ghost", As: "g"}}},
	}
	for i, q := range cases {
		if _, err := Execute(c, q); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestSQLRendering(t *testing.T) {
	q := &ConjunctiveQuery{
		Atoms: []Atom{{Relation: "go.term", Alias: "t"}},
		Selects: []SelCond{
			{Alias: "t", Attr: "name", Value: "o'brien"},
			{Alias: "t", Attr: "acc", Value: "GO:1"},
		},
		Project: []ProjCol{{Alias: "t", Attr: "name", As: "term"}},
		Cost:    1.25,
	}
	sql := q.SQL()
	for _, want := range []string{"SELECT", `t.name AS "term"`, "_cost", "t.name = 'o''brien'", "t.acc = 'GO:1'", `"go.term" t`} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL %q missing %q", sql, want)
		}
	}
}

func TestSignatureAliasInvariance(t *testing.T) {
	q1 := &ConjunctiveQuery{
		Atoms: []Atom{{Relation: "go.term", Alias: "a"}, {Relation: "ip.entry", Alias: "b"}},
		Joins: []JoinCond{{LeftAlias: "a", LeftAttr: "acc", RightAlias: "b", RightAttr: "entry_ac"}},
	}
	q2 := &ConjunctiveQuery{
		Atoms: []Atom{{Relation: "ip.entry", Alias: "x"}, {Relation: "go.term", Alias: "y"}},
		Joins: []JoinCond{{LeftAlias: "x", LeftAttr: "entry_ac", RightAlias: "y", RightAttr: "acc"}},
	}
	if q1.Signature() != q2.Signature() {
		t.Errorf("signatures differ:\n%s\n%s", q1.Signature(), q2.Signature())
	}
	q3 := &ConjunctiveQuery{Atoms: q1.Atoms} // no join: different structure
	if q1.Signature() == q3.Signature() {
		t.Error("different structures should have different signatures")
	}
}

func TestDisjointUnion(t *testing.T) {
	b1 := Branch{
		Result: &ResultSet{Columns: []string{"term", "title"},
			Rows: [][]string{{"plasma membrane", "Paper A"}}},
		Cost: 2.0, Provenance: "q1",
	}
	b2 := Branch{
		Result: &ResultSet{Columns: []string{"term", "abbrev"},
			Rows: [][]string{{"nucleus", "nuc"}, {"cytoplasm", "cyt"}}},
		Cost: 1.0, Provenance: "q2",
	}
	u := DisjointUnion([]Branch{b1, b2})
	if len(u.Columns) != 3 {
		t.Fatalf("columns = %v, want [term title abbrev]", u.Columns)
	}
	if u.Columns[0] != "term" || u.Columns[1] != "title" || u.Columns[2] != "abbrev" {
		t.Errorf("column order = %v", u.Columns)
	}
	if len(u.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(u.Rows))
	}
	// Cheaper branch (b2) ranks first.
	if u.Rows[0].Cost != 1.0 || u.Rows[0].Provenance != "q2" {
		t.Errorf("first row should come from q2: %+v", u.Rows[0])
	}
	// b1's row has empty abbrev column.
	last := u.Rows[2]
	if last.Provenance != "q1" || last.Values[2] != "" || last.Values[1] != "Paper A" {
		t.Errorf("q1 row misaligned: %+v", last)
	}
	// Shared column lands in the same slot for both branches.
	if u.Rows[0].Values[0] != "nucleus" {
		t.Errorf("shared column misaligned: %+v", u.Rows[0])
	}
}

func TestTableColumn(t *testing.T) {
	c := testCatalog(t)
	tb := c.Table("go.term")
	col := tb.Column("name")
	if len(col) != 3 || col[0] != "plasma membrane" {
		t.Errorf("Column(name) = %v", col)
	}
	if tb.Column("ghost") != nil {
		t.Error("unknown column should be nil")
	}
}

// SourceRelations returns the relations belonging to one source, in
// registration order.
func (c *Catalog) SourceRelations(source string) []*Relation {
	var out []*Relation
	for _, qn := range c.order {
		if r := c.tables[qn].Relation; r.Source == source {
			out = append(out, r)
		}
	}
	return out
}

func TestCanonicalPairSorts(t *testing.T) {
	a := AttrRef{Relation: "z.r", Attr: "x"}
	b := AttrRef{Relation: "a.r", Attr: "y"}
	if CanonicalPair(a, b) != CanonicalPair(b, a) {
		t.Error("CanonicalPair should be order-insensitive")
	}
	if !strings.HasPrefix(CanonicalPair(a, b), "a.r.y~") {
		t.Errorf("pair not sorted: %s", CanonicalPair(a, b))
	}
}
