package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// This file pins the structural join planner against the unplanned,
// materialised test oracle (executeOracle, oracle_test.go): over randomised
// catalogs and every join shape (self-filters included), the planner must
// not change a single result byte — only the order work happens in. It also
// pins the ordering rule itself (TestStructuralJoinOrder) and carries the
// join-binding regression tests the planner work surfaced: self-filter
// conditions (`t.a = t.b`) were silently dropped by both executors, and
// the top-k union once never validated branches its bound skipped.

// maybeSelfJoin sometimes appends a same-alias join condition (`t.a = t.b`)
// — the shape the old join-binding loops dropped.
func maybeSelfJoin(r *rand.Rand, c *Catalog, q *ConjunctiveQuery) {
	if r.Intn(3) != 0 {
		return
	}
	a := q.Atoms[r.Intn(len(q.Atoms))]
	rel := c.Relation(a.Relation)
	q.Joins = append(q.Joins, JoinCond{
		LeftAlias:  a.Alias,
		LeftAttr:   rel.Attributes[r.Intn(len(rel.Attributes))].Name,
		RightAlias: a.Alias,
		RightAttr:  rel.Attributes[r.Intn(len(rel.Attributes))].Name,
	})
}

// TestPlannedVsUnplannedEquivalence is the metamorphic gate of the planner:
// over randomised catalogs (tricky values, self-filters injected),
// Execute's structural order must return a ResultSet deep-equal to the
// oracle's naive order — content, order, nil-ness. The gate is vacuous if
// the two orders never differ, so it also fails unless some query is
// reordered.
func TestPlannedVsUnplannedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(4000))
	reordered := 0
	for trial := 0; trial < 120; trial++ {
		c := randomExecCatalog(r, 2+r.Intn(3))
		for qi := 0; qi < 6; qi++ {
			q := randomExecQuery(r, c)
			maybeSelfJoin(r, c, q)
			if p, err := planQuery(c, q); err == nil && !slices.Equal(p.order, naiveJoinOrder(q, p.atoms)) {
				reordered++
			}
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
	if reordered == 0 {
		t.Fatal("no random query got a join order different from the oracle's naive order")
	}
	t.Logf("%d queries reordered", reordered)
}

// TestPlannedBatchAndTopKEquivalence extends the metamorphic gate to the two
// batch entry points: ExecuteBatch and BatchPlan.TopKUnion must be
// byte-identical to the oracle executing every branch standalone, at several
// worker counts and k.
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
		// Duplicate a branch sometimes: the union must still be
		// byte-identical when two branches are the same query.
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
			if got := bp.Len(); got != len(queries) {
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

// TestStructuralJoinOrder pins the ordering rule: start at the lowest-index
// filtered atom (atom 0 if none), then take the unplaced atom that is
// connected to the placed set, then filtered, then lowest-indexed. It builds
// no value index: the rule reads no statistics. ExplainPlan must show the
// same order with the operator each step compiles to.
func TestStructuralJoinOrder(t *testing.T) {
	rel := &Relation{Source: "s", Name: "r", Attributes: []Attribute{{Name: "x"}, {Name: "y"}}}
	tb, err := NewTable(rel, [][]string{{"a", "a"}, {"a", "b"}, {"b", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCatalog()
	if err := c.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	eq := func(l, r int) JoinCond {
		return JoinCond{LeftAlias: fmt.Sprintf("t%d", l), LeftAttr: "x", RightAlias: fmt.Sprintf("t%d", r), RightAttr: "x"}
	}
	sel := func(i int) SelCond { return SelCond{Alias: fmt.Sprintf("t%d", i), Attr: "y", Value: "b"} }
	cases := []struct {
		name  string
		atoms int
		joins []JoinCond
		sels  []SelCond
		want  []int
		ops   []string
	}{
		{
			name: "filtered atom that is not atom 0 starts", atoms: 2,
			joins: []JoinCond{eq(0, 1)}, sels: []SelCond{sel(1)},
			want: []int{1, 0}, ops: []string{"scan", "hash join"},
		},
		{
			name: "self-filter counts as a filter", atoms: 2,
			joins: []JoinCond{eq(0, 1), {LeftAlias: "t1", LeftAttr: "x", RightAlias: "t1", RightAttr: "y"}},
			want:  []int{1, 0}, ops: []string{"scan", "hash join"},
		},
		{
			name: "connected before cross product", atoms: 3,
			joins: []JoinCond{eq(0, 2)}, sels: []SelCond{sel(0), sel(1)},
			want: []int{0, 2, 1}, ops: []string{"scan", "hash join", "nested loop"},
		},
		{
			name: "two disconnected components", atoms: 4,
			joins: []JoinCond{eq(0, 1), eq(2, 3)}, sels: []SelCond{sel(3)},
			want: []int{3, 2, 0, 1}, ops: []string{"scan", "hash join", "nested loop", "hash join"},
		},
		{
			name: "filtered component atom is the cross product", atoms: 4,
			joins: []JoinCond{eq(0, 1), eq(2, 3)}, sels: []SelCond{sel(1), sel(3)},
			want: []int{1, 0, 3, 2}, ops: []string{"scan", "hash join", "nested loop", "hash join"},
		},
		{
			name: "ties broken by index", atoms: 4,
			joins: []JoinCond{eq(0, 3), eq(0, 2), eq(0, 1)},
			want:  []int{0, 1, 2, 3}, ops: []string{"scan", "hash join", "hash join", "hash join"},
		},
		{
			name: "filtered before unfiltered among connected", atoms: 4,
			joins: []JoinCond{eq(0, 1), eq(0, 2), eq(0, 3)}, sels: []SelCond{sel(0), sel(3), sel(2)},
			want: []int{0, 2, 3, 1}, ops: []string{"scan", "hash join", "hash join", "hash join"},
		},
	}
	for _, tc := range cases {
		q := &ConjunctiveQuery{Joins: tc.joins, Selects: tc.sels}
		for i := 0; i < tc.atoms; i++ {
			q.Atoms = append(q.Atoms, Atom{Relation: "s.r", Alias: fmt.Sprintf("t%d", i)})
		}
		q.Project = []ProjCol{{Alias: "t0", Attr: "x", As: "x"}}
		p, err := planQuery(c, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(p.order, tc.want) {
			t.Errorf("%s: order = %v, want %v", tc.name, p.order, tc.want)
		}
		lines, err := ExplainPlan(c, q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(lines) != tc.atoms+1 || !strings.Contains(lines[0], "structural") {
			t.Fatalf("%s: explain = %q, want a structural header + %d steps", tc.name, lines, tc.atoms)
		}
		for step, oi := range tc.want {
			prefix := fmt.Sprintf("%s t%d=", tc.ops[step], oi)
			if l := lines[step+1]; !strings.HasPrefix(l, prefix) || strings.Contains(l, "(est") {
				t.Errorf("%s: step %d = %q, want prefix %q and no estimate", tc.name, step, l, prefix)
			}
		}
		want, err := executeOracle(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Execute(c, q); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Execute = %v, %v; oracle %v", tc.name, got, err, want)
		}
	}
}
