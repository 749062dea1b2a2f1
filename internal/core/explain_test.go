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
	if len(v.Result().Rows) == 0 {
		t.Fatal("no rows to explain")
	}
	ex, err := q.Explain(v, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Cost != v.Result().Rows[0].Cost {
		t.Errorf("cost = %v, want %v", ex.Cost, v.Result().Rows[0].Cost)
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
	for i := range v.Result().Rows {
		e, err := q.Explain(v, i)
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
	if _, err := q.Explain(v, 99_999); err == nil {
		t.Error("out-of-range row should fail")
	}
}
