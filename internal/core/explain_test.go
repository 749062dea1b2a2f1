package core

import (
	"strings"
	"testing"
)

func TestExplain(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	m := v.Current()
	if len(m.Result.Rows) == 0 {
		t.Fatal("no rows to explain")
	}
	ex, err := q.Explain(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Cost != m.Result.Rows[0].Cost {
		t.Errorf("cost = %v, want %v", ex.Cost, m.Result.Rows[0].Cost)
	}
	if len(ex.Keywords) == 0 {
		t.Error("explanation should list keyword matches")
	}
	if !strings.HasPrefix(ex.SQL, "SELECT") {
		t.Errorf("SQL missing: %q", ex.SQL)
	}
	if len(ex.Plan) < 2 || !strings.Contains(ex.Plan[0], "structural") {
		t.Fatalf("plan lines missing or not naming the structural rule: %q", ex.Plan)
	}
	if !strings.HasPrefix(ex.Plan[1], "scan ") {
		t.Errorf("plan step 1 = %q, want a scan operator line", ex.Plan)
	}
	for _, step := range ex.Plan[2:] {
		if !strings.HasPrefix(step, "hash join ") && !strings.HasPrefix(step, "nested loop ") {
			t.Errorf("plan step %q, want a hash join or nested loop operator line", step)
		}
	}
	for _, step := range ex.Plan[1:] {
		if strings.Contains(step, "(est") {
			t.Errorf("plan step %q carries an estimate", step)
		}
	}
	s := ex.String()
	for _, want := range []string{"cost", "keyword:", "plan:", "sql:"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	// The cross-source answer must surface the hand-coded association in
	// its join provenance.
	foundJoin := false
	for i := range m.Result.Rows {
		e, err := q.Explain(m, i)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range e.Joins {
			if strings.Contains(j, "go.term.acc") && strings.Contains(j, "association") {
				foundJoin = true
			}
		}
	}
	if !foundJoin {
		t.Error("no explanation surfaced the cross-source association join")
	}
	if _, err := q.Explain(m, 99_999); err == nil {
		t.Error("out-of-range row should fail")
	}
}

// TestExplainSQLIsTheBranchThatRan pins that an explanation shows the SQL
// that produced its row: the branch query after output-column alignment,
// not a fresh translation of the branch's tree (which names a column by
// its own attribute where the union aligned it under another's).
func TestExplainSQLIsTheBranchThatRan(t *testing.T) {
	q := newFixtureQ(t, true)
	for _, query := range []string{"'GO:0000002'", "'plasma membrane' 'Kringle domain'"} {
		v, err := queryStr(q, query)
		if err != nil {
			t.Fatal(err)
		}
		m := v.Current()
		if len(m.Result.Rows) == 0 {
			t.Fatalf("%s: no rows to explain", query)
		}
		for i, row := range m.Result.Rows {
			ex, err := q.Explain(m, i)
			if err != nil {
				t.Fatal(err)
			}
			if want := m.Queries[row.Branch].SQL(); ex.SQL != want {
				t.Errorf("%s row %d: Explain SQL\n%s\nwant the branch's\n%s", query, i, ex.SQL, want)
			}
		}
	}
}
