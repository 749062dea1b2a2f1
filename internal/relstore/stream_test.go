package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// This file pins the streaming executor: the composed iterator pipeline
// (stream.go) must be byte-identical to the materialise-everything test
// oracle (executeOracle, oracle_test.go) on randomised catalogs and every
// join shape, and the top-k streamed union must equal the full union's top-k
// prefix while provably skipping unbeatable branches. It also
// carries the row-identity regression tests: the old fmt.Sprint projection
// dedup key and the "\x00"-separator join keys silently merged distinct
// rows, and these tests fail against those encodings.

// trickyValues is the value pool of the randomised catalogs: embedded
// spaces, NUL bytes, empty strings and unicode — exactly the shapes that
// collided under the old separator-based row-identity encodings.
var trickyValues = []string{
	"", " ", "a", "b", "c", "a b", "b c", "a b c",
	"a\x00", "\x00b", "a\x00b", "x\x00", "\x00",
	"é", "東京", "pro", "mem", "pro mem", "PRO",
}

// randomExecTable builds a small table with values drawn from trickyValues.
func randomExecTable(r *rand.Rand, source string, nAttrs, nRows int) *Table {
	attrs := make([]Attribute, nAttrs)
	for i := range attrs {
		attrs[i] = Attribute{Name: fmt.Sprintf("a%d", i)}
	}
	rel := &Relation{Source: source, Name: "data", Attributes: attrs}
	rows := make([][]string, nRows)
	for i := range rows {
		row := make([]string, nAttrs)
		for j := range row {
			row[j] = trickyValues[r.Intn(len(trickyValues))]
		}
		rows[i] = row
	}
	t, err := NewTable(rel, rows)
	if err != nil {
		panic(err)
	}
	return t
}

// randomExecCatalog builds a catalog of small tricky-valued tables.
func randomExecCatalog(r *rand.Rand, nTables int) *Catalog {
	c := NewCatalog()
	for i := 0; i < nTables; i++ {
		nAttrs := 2 + r.Intn(3)
		nRows := r.Intn(25)
		if err := c.AddTable(randomExecTable(r, fmt.Sprintf("s%d", i), nAttrs, nRows)); err != nil {
			panic(err)
		}
	}
	return c
}

// randomExecQuery builds a random conjunctive query over the catalog: 1–3
// atoms, equi-joins between consecutive atoms (or none — a cross product),
// random selections and a random projection.
func randomExecQuery(r *rand.Rand, c *Catalog) *ConjunctiveQuery {
	names := c.RelationNames()
	nAtoms := 1 + r.Intn(3)
	q := &ConjunctiveQuery{Cost: float64(r.Intn(8)) / 2}
	for i := 0; i < nAtoms; i++ {
		q.Atoms = append(q.Atoms, Atom{
			Relation: names[r.Intn(len(names))],
			Alias:    fmt.Sprintf("t%d", i),
		})
	}
	attrOf := func(ai int) (string, string) {
		a := q.Atoms[ai]
		rel := c.Relation(a.Relation)
		return a.Alias, rel.Attributes[r.Intn(len(rel.Attributes))].Name
	}
	for i := 1; i < nAtoms; i++ {
		nConds := r.Intn(3) // 0 = cross product
		for jc := 0; jc < nConds; jc++ {
			la, lattr := attrOf(r.Intn(i))
			ra, rattr := attrOf(i)
			q.Joins = append(q.Joins, JoinCond{LeftAlias: la, LeftAttr: lattr, RightAlias: ra, RightAttr: rattr})
		}
	}
	for s := 0; s < r.Intn(3); s++ {
		al, attr := attrOf(r.Intn(nAtoms))
		q.Selects = append(q.Selects, SelCond{Alias: al, Attr: attr, Value: trickyValues[r.Intn(len(trickyValues))]})
	}
	nProj := 1 + r.Intn(4)
	for p := 0; p < nProj; p++ {
		al, attr := attrOf(r.Intn(nAtoms))
		q.Project = append(q.Project, ProjCol{Alias: al, Attr: attr, As: fmt.Sprintf("c%d", p)})
	}
	return q
}

// TestStreamingVsMaterialisedEquivalence is the metamorphic gate of the
// streaming executor: over randomised catalogs (tricky values included)
// and randomised queries of every join shape, Execute must return a
// ResultSet deep-equal to the materialised oracle's — content, order and
// nil-ness.
func TestStreamingVsMaterialisedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1000))
	for trial := 0; trial < 180; trial++ {
		c := randomExecCatalog(r, 2+r.Intn(3))
		for qi := 0; qi < 6; qi++ {
			q := randomExecQuery(r, c)
			want, errM := executeOracle(c, q)
			got, errS := Execute(c, q)
			if (errM == nil) != (errS == nil) {
				t.Fatalf("trial %d query %d: error divergence: oracle=%v production=%v\nquery: %s",
					trial, qi, errM, errS, q.SQL())
			}
			if errM != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %d: result divergence\nquery: %s\nproduction: %v\noracle:     %v",
					trial, qi, q.SQL(), got, want)
			}
		}
	}
}

// TestProjectionDedupEmbeddedSpaces is the regression test for the
// fmt.Sprint projection-dedup key: the rows ["a b","c"] and ["a","b c"]
// rendered identically ("[a b c]") and one was silently dropped. Both must
// survive, in production and in the oracle, along with empty-string rows that
// previously collided with single-space rows.
func TestProjectionDedupEmbeddedSpaces(t *testing.T) {
	rel := &Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
	tb, err := NewTable(rel, [][]string{
		{"a b", "c"},
		{"a", "b c"},
		{"", " "},
		{" ", ""},
		{"", ""},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	q := &ConjunctiveQuery{
		Atoms: []Atom{{Relation: "s.r", Alias: "t0"}},
		Project: []ProjCol{
			{Alias: "t0", Attr: "x", As: "x"},
			{Alias: "t0", Attr: "y", As: "y"},
		},
	}
	for _, ex := range executors {
		rs, err := ex.run(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 5 {
			t.Errorf("%s: got %d rows, want all 5 distinct rows preserved: %q", ex.name, len(rs.Rows), rs.Rows)
		}
	}
}

// TestJoinKeyNulRegression is the regression test for the "\x00"-separator
// hash-join key: the tuples ("a\x00","b") and ("a","\x00b") encoded to the
// same key, so a two-column equi-join matched rows whose values differ. The
// join must produce no match for them — and must still match genuinely
// equal tuples, including ones containing NUL.
func TestJoinKeyNulRegression(t *testing.T) {
	mk := func(source string, rows [][]string) *Table {
		rel := &Relation{Source: source, Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
		tb, err := NewTable(rel, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	c := NewCatalog()
	if err := c.AddTable(mk("l", [][]string{
		{"a\x00", "b"},     // collides with r's ("a","\x00b") under the old key
		{"q\x00q", "\x00"}, // genuine match present on both sides
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(mk("r", [][]string{
		{"a", "\x00b"},
		{"q\x00q", "\x00"},
	})); err != nil {
		t.Fatal(err)
	}
	q := &ConjunctiveQuery{
		Atoms: []Atom{{Relation: "l.r", Alias: "t0"}, {Relation: "r.r", Alias: "t1"}},
		Joins: []JoinCond{
			{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"},
			{LeftAlias: "t0", LeftAttr: "y", RightAlias: "t1", RightAttr: "y"},
		},
		Project: []ProjCol{
			{Alias: "t0", Attr: "x", As: "lx"},
			{Alias: "t1", Attr: "x", As: "rx"},
		},
	}
	for _, ex := range executors {
		rs, err := ex.run(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("%s: got %d join rows %q, want exactly the genuine q\\x00q match", ex.name, len(rs.Rows), rs.Rows)
		}
		if rs.Rows[0][0] != "q\x00q" {
			t.Errorf("%s: wrong row matched: %q", ex.name, rs.Rows[0])
		}
	}
}

// TestSelectionUnknownAttributeErrors pins the plan-time error contract: a
// selection naming a missing attribute is a returned error (from Validate
// or plan binding), never an index-out-of-range panic mid-row-loop.
func TestSelectionUnknownAttributeErrors(t *testing.T) {
	rel := &Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "x"}}}
	tb, err := NewTable(rel, [][]string{{"v"}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	q := &ConjunctiveQuery{
		Atoms:   []Atom{{Relation: "s.r", Alias: "t0"}},
		Selects: []SelCond{{Alias: "t0", Attr: "missing", Value: "v"}},
		Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
	}
	for _, ex := range executors {
		if _, err := ex.run(c, q); err == nil || !strings.Contains(err.Error(), "missing") {
			t.Errorf("%s: want attribute error, got %v", ex.name, err)
		}
	}
	// bindSels itself must also error rather than panic when handed a
	// condition Validate never saw (defence in depth for future callers).
	if _, err := bindSels(rel, []SelCond{{Attr: "nope"}}); err == nil {
		t.Error("bindSels: want error for unknown attribute, got nil")
	}
}

// executeTopKUnion plans a batch and runs its top-k union: the plan and
// execute stages of one view materialisation, in one call.
func executeTopKUnion(c *Catalog, queries []*ConjunctiveQuery, k int, prov []string) (*UnionResult, TopKUnionStats, error) {
	bp, err := PlanBatch(c, queries)
	if err != nil {
		return nil, TopKUnionStats{}, err
	}
	return bp.TopKUnion(k, prov)
}

// TestTopKUnionEquivalence pins the streamed top-k union against the
// executable spec: for randomised branch batches (shared costs, ties,
// unordered costs), BatchPlan.TopKUnion's result must be deep-equal to
// executing every branch in full, DisjointUnion-ing, and truncating to k.
func TestTopKUnionEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		c := randomExecCatalog(r, 2+r.Intn(3))
		nBranches := 1 + r.Intn(5)
		queries := make([]*ConjunctiveQuery, 0, nBranches)
		for len(queries) < nBranches {
			q := randomExecQuery(r, c)
			if _, err := executeOracle(c, q); err != nil {
				continue
			}
			queries = append(queries, q)
		}
		// Mostly ascending costs (core's tree-cost order), with ties.
		for i, q := range queries {
			q.Cost = float64(i/2) * 0.5
		}
		prov := make([]string, len(queries))
		branches := make([]Branch, len(queries))
		for i, q := range queries {
			prov[i] = q.Signature()
			rs, err := executeOracle(c, q)
			if err != nil {
				t.Fatal(err)
			}
			branches[i] = Branch{Result: rs, Cost: q.Cost, Provenance: prov[i]}
		}
		full := DisjointUnion(branches)
		for _, k := range []int{1, 2, 5, 100} {
			got, _, err := executeTopKUnion(c, queries, k, prov)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, full.Columns) {
				t.Fatalf("trial %d k=%d: column divergence: %v vs %v", trial, k, got.Columns, full.Columns)
			}
			want := full.Rows[:min(k, len(full.Rows))]
			if len(got.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got.Rows, want)) {
				t.Fatalf("trial %d k=%d: row divergence\ngot:  %v\nwant: %v", trial, k, got.Rows, want)
			}
		}
	}
}

// TestTopKUnionEarlyTermination pins the early-termination bound itself:
// once k rows at or below a later branch's cost exist, that branch is never
// executed — observable as skipped branches.
func TestTopKUnionEarlyTermination(t *testing.T) {
	rel := &Relation{Source: "s", Name: "big", Attributes: []Attribute{{Name: "x"}}}
	rows := make([][]string, 50)
	for i := range rows {
		rows[i] = []string{fmt.Sprintf("v%02d", i)}
	}
	tb, err := NewTable(rel, rows)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	branch := func(cost float64) *ConjunctiveQuery {
		return &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: "s.big", Alias: "t0"}},
			Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
			Cost:    cost,
		}
	}
	queries := []*ConjunctiveQuery{branch(1.0), branch(2.0), branch(3.0)}
	got, stats, err := executeTopKUnion(c, queries, 5, []string{"b0", "b1", "b2"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BranchesExecuted != 1 || stats.BranchesSkipped != 2 {
		t.Errorf("executed=%d skipped=%d, want 1 executed / 2 skipped", stats.BranchesExecuted, stats.BranchesSkipped)
	}
	if len(got.Rows) != 5 || got.Rows[0].Cost != 1.0 {
		t.Errorf("unexpected top-k rows: %v", got.Rows)
	}
	// The tie case: a later branch at the SAME cost as the k-th collected
	// row is also unbeatable (ties lose to earlier branches).
	_, stats, err = executeTopKUnion(c, []*ConjunctiveQuery{branch(1.0), branch(1.0)}, 5, []string{"b0", "b1"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BranchesSkipped != 1 {
		t.Errorf("tie case: skipped=%d, want the equal-cost later branch skipped", stats.BranchesSkipped)
	}
}

// TestStreamStatsAccounting pins the stream's work counter: emitted counts
// the projections that survive deduplication.
func TestStreamStatsAccounting(t *testing.T) {
	rel := &Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
	tb, err := NewTable(rel, [][]string{
		{"a", "1"}, {"a", "2"}, {"b", "3"}, {"b", "4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	q := &ConjunctiveQuery{
		Atoms:   []Atom{{Relation: "s.r", Alias: "t0"}},
		Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
	}
	st, err := BuildStream(c, q)
	if err != nil {
		t.Fatal(err)
	}
	rs := st.Drain()
	stats := st.Stats()
	if stats.RowsEmitted != 2 {
		t.Errorf("stats = %+v, want emitted=2 (dedup on x)", stats)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("rows = %q, want the 2 distinct x values", rs.Rows)
	}
}

// TestExecuteBatchEquivalence pins the batch executor against a serial
// Execute loop: identical results in index order at any worker count, and
// serial error semantics (the lowest failing index wins).
func TestExecuteBatchEquivalence(t *testing.T) {
	c := testCatalog(t)
	mkq := func(rel, attr, val string) *ConjunctiveQuery {
		return &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: rel, Alias: "t0"}},
			Selects: []SelCond{{Alias: "t0", Attr: attr, Value: val}},
			Project: []ProjCol{{Alias: "t0", Attr: attr, As: attr}},
		}
	}
	queries := []*ConjunctiveQuery{
		mkq("go.term", "name", "plasma membrane"),
		mkq("ip.entry", "name", "Kringle domain"),
		mkq("ip.entry", "entry_ac", "IPR000002"),
		mkq("go.term", "acc", "GO:0005737"),
		mkq("ip.interpro2go", "go_id", "GO:0005886"),
	}
	want := make([]*ResultSet, len(queries))
	for i, q := range queries {
		rs, err := Execute(c, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := ExecuteBatch(c, queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch diverged from serial execution", workers)
		}
	}
	// Error semantics: two failing queries, the lower index's error surfaces.
	bad := append([]*ConjunctiveQuery{}, queries...)
	bad[1] = mkq("no.such", "a", "x")
	bad[3] = mkq("also.missing", "b", "y")
	wantErr := ""
	for _, q := range bad {
		if _, err := Execute(c, q); err != nil {
			wantErr = err.Error()
			break
		}
	}
	for _, workers := range []int{1, 4} {
		if _, err := ExecuteBatch(c, bad, workers); err == nil || err.Error() != wantErr {
			t.Fatalf("workers=%d: error = %v, want %q", workers, err, wantErr)
		}
	}
}

// TestExecuteBatchStreamingEquivalence extends the batch gate to the
// oracle: the batch API must return, at several worker counts, exactly what
// the materialised oracle returns query by query.
func TestExecuteBatchStreamingEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	c := randomExecCatalog(r, 4)
	var queries []*ConjunctiveQuery
	var want []*ResultSet
	for len(queries) < 8 {
		q := randomExecQuery(r, c)
		if rs, err := executeOracle(c, q); err == nil {
			queries = append(queries, q)
			want = append(want, rs)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := ExecuteBatch(c, queries, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch divergence from the oracle", workers)
		}
	}
}
