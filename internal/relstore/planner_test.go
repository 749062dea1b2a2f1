package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// This file pins the cost-based join planner and the cross-branch CSE layer
// against the unplanned, materialised test oracle (executeOracle,
// oracle_test.go): over randomised catalogs and every join shape
// (self-filters included), the planner must not change a single result byte — only the order work happens in. It also carries the
// join-binding regression tests the planner work surfaced: self-filter
// conditions (`t.a = t.b`) were silently dropped by both executors, and
// the top-k union once never validated branches its bound skipped.

// maybeSelfJoin sometimes appends a same-alias join condition (`t.a = t.b`,
// occasionally similarity) — the shape the old join-binding loops dropped.
func maybeSelfJoin(r *rand.Rand, c *Catalog, q *ConjunctiveQuery) {
	if r.Intn(3) != 0 {
		return
	}
	a := q.Atoms[r.Intn(len(q.Atoms))]
	rel := c.Relation(a.Relation)
	cond := JoinCond{
		LeftAlias:  a.Alias,
		LeftAttr:   rel.Attributes[r.Intn(len(rel.Attributes))].Name,
		RightAlias: a.Alias,
		RightAttr:  rel.Attributes[r.Intn(len(rel.Attributes))].Name,
	}
	if r.Intn(3) == 0 {
		cond.Op = JoinSimilar
		cond.Threshold = 0.3 + 0.4*r.Float64()
	}
	q.Joins = append(q.Joins, cond)
}

// TestPlannedVsUnplannedEquivalence is the metamorphic gate of the planner:
// over randomised catalogs (tricky values, self-filters injected),
// Execute's cost-based order must return a ResultSet deep-equal to the
// oracle's naive order — content, order, nil-ness.
func TestPlannedVsUnplannedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4000))
	for trial := 0; trial < 120; trial++ {
		c := randomExecCatalog(r, 2+r.Intn(3))
		c.BuildValueIndex(2) // planner statistics source
		for qi := 0; qi < 6; qi++ {
			q := randomExecQuery(r, c)
			maybeSelfJoin(r, c, q)
			want, errW := executeOracle(c, q)
			got, err := Execute(c, q)
			if (errW == nil) != (err == nil) {
				t.Fatalf("trial %d query %d: error divergence: oracle=%v got=%v\nquery: %s",
					trial, qi, errW, err, q.SQL())
			}
			if errW != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d query %d: result divergence\nquery: %s\ngot:    %v\noracle: %v",
					trial, qi, q.SQL(), got, want)
			}
		}
	}
}

// TestPlannedBatchAndTopKEquivalence extends the metamorphic gate to the two
// batch entry points the CSE cache feeds: ExecuteBatch and BatchPlan.TopKUnion
// (shared subtrees reused) must be byte-identical to the oracle executing
// every branch standalone, at several worker counts and k.
func TestPlannedBatchAndTopKEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		c := randomExecCatalog(r, 2+r.Intn(3))
		c.BuildValueIndex(2)
		var queries []*ConjunctiveQuery
		for len(queries) < 2+r.Intn(5) {
			q := randomExecQuery(r, c)
			maybeSelfJoin(r, c, q)
			if _, err := executeOracle(c, q); err != nil {
				continue
			}
			queries = append(queries, q)
		}
		// Duplicate a branch sometimes: identical queries are the easiest
		// shared subtree, and the union must still be byte-identical.
		if r.Intn(2) == 0 {
			dup := *queries[0]
			queries = append(queries, &dup)
		}
		for i, q := range queries {
			q.Cost = float64(i/2) * 0.5
		}
		prov := make([]string, len(queries))
		for i, q := range queries {
			prov[i] = fmt.Sprintf("b%d:%s", i, q.Signature())
		}
		want := make([]*ResultSet, len(queries))
		for i, q := range queries {
			rs, err := executeOracle(c, q)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = rs
		}
		for _, workers := range []int{1 + r.Intn(4), 1 + r.Intn(4)} {
			got, err := ExecuteBatch(c, queries, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d workers=%d: batch divergence from the oracle", trial, workers)
			}
		}
		for _, k := range []int{1, 3, 100} {
			wantU, err := oracleTopKUnion(c, queries, k, prov)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := PlanBatch(c, queries)
			if err != nil {
				t.Fatal(err)
			}
			gotU, _, err := bp.TopKUnion(k, prov)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotU, wantU) {
				t.Fatalf("trial %d k=%d: top-k union divergence\ngot:  %v\nwant: %v", trial, k, gotU, wantU)
			}
			if got := bp.Stats().BranchesPlanned; got != int64(len(queries)) {
				t.Fatalf("trial %d k=%d: branches planned = %d, want %d", trial, k, got, len(queries))
			}
		}
	}
}

// TestSelfFilterJoinApplied is the regression test for the dropped same-alias
// join condition: both executors bound join conditions by looking the other
// endpoint up among PREVIOUSLY-joined aliases, so `t.a = t.b` — whose other
// endpoint is the atom itself — never bound to anything and rows violating it
// leaked into the result. It fails against that code.
func TestSelfFilterJoinApplied(t *testing.T) {
	mk := func(source string, attrs []string, rows [][]string) *Table {
		as := make([]Attribute, len(attrs))
		for i, a := range attrs {
			as[i] = Attribute{Name: a}
		}
		tb, err := NewTable(&Relation{Source: source, Name: "r", Attributes: as}, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	c := NewCatalog()
	if err := c.AddTable(mk("s", []string{"x", "y"}, [][]string{
		{"1", "1"}, {"1", "2"}, {"3", "3"},
	})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(mk("u", []string{"x", "y", "z"}, [][]string{
		{"1", "a", "a"}, {"1", "a", "b"}, {"3", "c", "c"},
	})); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		q    *ConjunctiveQuery
		want [][]string
	}{
		{
			// First (and only) atom: the filter applies at the scan.
			name: "first-atom equi",
			q: &ConjunctiveQuery{
				Atoms: []Atom{{Relation: "s.r", Alias: "t0"}},
				Joins: []JoinCond{{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t0", RightAttr: "y"}},
				Project: []ProjCol{
					{Alias: "t0", Attr: "x", As: "x"}, {Alias: "t0", Attr: "y", As: "y"},
				},
			},
			want: [][]string{{"1", "1"}, {"3", "3"}},
		},
		{
			// Later atom: the filter applies inside the join's build/probe.
			name: "later-atom equi",
			q: &ConjunctiveQuery{
				Atoms: []Atom{{Relation: "s.r", Alias: "t0"}, {Relation: "u.r", Alias: "t1"}},
				Joins: []JoinCond{
					{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"},
					{LeftAlias: "t1", LeftAttr: "y", RightAlias: "t1", RightAttr: "z"},
				},
				Project: []ProjCol{
					{Alias: "t0", Attr: "x", As: "x"}, {Alias: "t1", Attr: "y", As: "y"},
					{Alias: "t1", Attr: "z", As: "z"},
				},
			},
			want: [][]string{{"1", "a", "a"}, {"3", "c", "c"}},
		},
		{
			// Similarity self-filter: "alpha beta"~"alpha beta" passes 0.5,
			// "alpha"~"zulu" does not.
			name: "similarity",
			q: &ConjunctiveQuery{
				Atoms: []Atom{{Relation: "v.r", Alias: "t0"}},
				Joins: []JoinCond{{
					LeftAlias: "t0", LeftAttr: "x", RightAlias: "t0", RightAttr: "y",
					Op: JoinSimilar, Threshold: 0.5,
				}},
				Project: []ProjCol{
					{Alias: "t0", Attr: "x", As: "x"}, {Alias: "t0", Attr: "y", As: "y"},
				},
			},
			want: [][]string{{"alpha beta", "alpha beta"}},
		},
	}
	if err := c.AddTable(mk("v", []string{"x", "y"}, [][]string{
		{"alpha beta", "alpha beta"}, {"alpha", "zulu"},
	})); err != nil {
		t.Fatal(err)
	}

	for _, tc := range cases {
		for _, ex := range executors {
			rs, err := ex.run(c, tc.q)
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, ex.name, err)
			}
			if !reflect.DeepEqual(rs.Rows, tc.want) {
				t.Errorf("%s %s: self-filter not applied\ngot:  %q\nwant: %q", tc.name, ex.name, rs.Rows, tc.want)
			}
		}
	}
}

// TestUnknownAliasAndAttrRejected pins Validate's rejection surface across
// every condition kind, in production and in the oracle: a query
// naming an alias or attribute that does not exist is a returned error, never
// a silently-ignored condition or a panic.
func TestUnknownAliasAndAttrRejected(t *testing.T) {
	rel := &Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
	tb, err := NewTable(rel, [][]string{{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	base := func() *ConjunctiveQuery {
		return &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: "s.r", Alias: "t0"}, {Relation: "s.r", Alias: "t1"}},
			Joins:   []JoinCond{{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"}},
			Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
		}
	}
	cases := []struct {
		name   string
		mutate func(q *ConjunctiveQuery)
	}{
		{"join left alias unknown", func(q *ConjunctiveQuery) {
			q.Joins = append(q.Joins, JoinCond{LeftAlias: "ghost", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"})
		}},
		{"join right alias unknown", func(q *ConjunctiveQuery) {
			q.Joins = append(q.Joins, JoinCond{LeftAlias: "t0", LeftAttr: "x", RightAlias: "ghost", RightAttr: "x"})
		}},
		{"join attr unknown", func(q *ConjunctiveQuery) {
			q.Joins = append(q.Joins, JoinCond{LeftAlias: "t0", LeftAttr: "nope", RightAlias: "t1", RightAttr: "x"})
		}},
		{"self-join attr unknown", func(q *ConjunctiveQuery) {
			q.Joins = append(q.Joins, JoinCond{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t0", RightAttr: "nope"})
		}},
		{"select alias unknown", func(q *ConjunctiveQuery) {
			q.Selects = append(q.Selects, SelCond{Alias: "ghost", Attr: "x", Value: "a"})
		}},
		{"select attr unknown", func(q *ConjunctiveQuery) {
			q.Selects = append(q.Selects, SelCond{Alias: "t0", Attr: "nope", Value: "a"})
		}},
		{"project alias unknown", func(q *ConjunctiveQuery) {
			q.Project = append(q.Project, ProjCol{Alias: "ghost", Attr: "x", As: "g"})
		}},
		{"project attr unknown", func(q *ConjunctiveQuery) {
			q.Project = append(q.Project, ProjCol{Alias: "t0", Attr: "nope", As: "g"})
		}},
	}
	for _, tc := range cases {
		q := base()
		tc.mutate(q)
		for _, ex := range executors {
			if _, err := ex.run(c, q); err == nil {
				t.Errorf("%s (%s): want error, got nil", tc.name, ex.name)
			}
		}
		if _, err := ExecuteBatch(c, []*ConjunctiveQuery{base(), q}, 2); err == nil {
			t.Errorf("%s (batch): want error, got nil", tc.name)
		}
	}
}

// TestTopKUnionValidatesSkippedBranches is the regression test for the
// skipped-branch validation hole: the top-k union once validated a branch only
// when it built its stream, so a malformed branch behind an unbeatable cost
// bound silently succeeded where the serial spec (execute every branch,
// lowest-index error wins) errors. The batch must fail loudly regardless of
// which branches the bound would skip.
func TestTopKUnionValidatesSkippedBranches(t *testing.T) {
	rel := &Relation{Source: "s", Name: "big", Attributes: []Attribute{{Name: "x"}}}
	rows := make([][]string, 20)
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
	good := &ConjunctiveQuery{
		Atoms:   []Atom{{Relation: "s.big", Alias: "t0"}},
		Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
		Cost:    1.0,
	}
	bad := &ConjunctiveQuery{
		Atoms:   []Atom{{Relation: "s.big", Alias: "t0"}},
		Selects: []SelCond{{Alias: "t0", Attr: "missing", Value: "v"}},
		Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
		Cost:    9.0, // unbeatable after the first branch fills k
	}
	queries := []*ConjunctiveQuery{good, bad}
	_, _, err = executeTopKUnion(c, queries, 5, []string{"b0", "b1"})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("skipped malformed branch must error like the serial spec, got %v", err)
	}
}

// TestBatchPlanCSECounters pins the subplan cache's behaviour on a
// constructed shared subtree: two branches over the same atoms and join (only
// projections differ) must plan one shared subtree, materialise it once,
// serve the second branch from the cache — and return exactly what standalone
// execution returns.
func TestBatchPlanCSECounters(t *testing.T) {
	mk := func(source string, rows [][]string) *Table {
		rel := &Relation{Source: source, Name: "r", Attributes: []Attribute{{Name: "a"}, {Name: "b"}}}
		tb, err := NewTable(rel, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	c := NewCatalog()
	if err := c.AddTable(mk("l", [][]string{{"k1", "p"}, {"k2", "q"}, {"k3", "r"}})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(mk("m", [][]string{{"k1", "u"}, {"k2", "v"}, {"k9", "w"}})); err != nil {
		t.Fatal(err)
	}
	c.BuildValueIndex(1)
	shape := func(proj []ProjCol) *ConjunctiveQuery {
		return &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: "l.r", Alias: "t0"}, {Relation: "m.r", Alias: "t1"}},
			Joins:   []JoinCond{{LeftAlias: "t0", LeftAttr: "a", RightAlias: "t1", RightAttr: "a"}},
			Project: proj,
		}
	}
	qa := shape([]ProjCol{{Alias: "t0", Attr: "b", As: "lb"}})
	qb := shape([]ProjCol{{Alias: "t1", Attr: "b", As: "rb"}})
	bp, err := PlanBatch(c, []*ConjunctiveQuery{qa, qb})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []*ConjunctiveQuery{qa, qb} {
		got, err := bp.Execute(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("branch %d: CSE result differs from standalone execution\ngot:  %v\nwant: %v", i, got, want)
		}
	}
	st := bp.Stats()
	if st.BranchesPlanned != 2 || st.SharedSubtrees != 1 {
		t.Errorf("planned=%d shared=%d, want 2 planned, 1 shared subtree", st.BranchesPlanned, st.SharedSubtrees)
	}
	if st.SubplansComputed != 1 || st.CSEHits != 1 {
		t.Errorf("computed=%d hits=%d, want the shared prefix computed once and reused once",
			st.SubplansComputed, st.CSEHits)
	}
}

// TestPlannedOrderPrefersSelectiveAtom pins the cost model end-to-end through
// ExplainPlan: with segment statistics available, a highly selective later
// atom must be scanned first (naive order starts at atom 0), the plan must
// read as a hash join, and the reorder must show up in the batch counters.
func TestPlannedOrderPrefersSelectiveAtom(t *testing.T) {
	rel := &Relation{Source: "s", Name: "big", Attributes: []Attribute{{Name: "x"}}}
	rows := make([][]string, 100)
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
	c.BuildValueIndex(1)
	q := &ConjunctiveQuery{
		Atoms: []Atom{{Relation: "s.big", Alias: "t0"}, {Relation: "s.big", Alias: "t1"}},
		Joins: []JoinCond{{LeftAlias: "t0", LeftAttr: "x", RightAlias: "t1", RightAttr: "x"}},
		Selects: []SelCond{
			{Alias: "t1", Attr: "x", Op: OpEq, Value: "v07"}, // est 1 row from the segment
		},
		Project: []ProjCol{{Alias: "t0", Attr: "x", As: "x"}},
	}
	lines, err := ExplainPlan(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 || !strings.Contains(lines[0], "cost-based") {
		t.Fatalf("explain = %q, want cost-based header + 2 steps", lines)
	}
	if !strings.HasPrefix(lines[1], "scan t1=") {
		t.Errorf("first step = %q, want the selective atom t1 scanned first", lines[1])
	}
	if !strings.HasPrefix(lines[2], "hash join t0=") {
		t.Errorf("second step = %q, want t0 joined in by hash join", lines[2])
	}
	bp, err := PlanBatch(c, []*ConjunctiveQuery{q})
	if err != nil {
		t.Fatal(err)
	}
	if st := bp.Stats(); st.BranchesReordered != 1 {
		t.Errorf("branches reordered = %d, want 1 (planned order differs from naive)", st.BranchesReordered)
	}
}
