package core

import (
	"errors"
	"reflect"
	"testing"

	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// This file pins branch execution at the pipeline level: a view's ranked
// result — the top-k union, which never executes a branch that cannot reach
// the top k — must equal the top-k prefix of its branch queries executed one
// by one and unioned in full, with the same columns and α.

// streamCorpus is one dataset of the executor-equivalence suite, with a
// builder parameterised over the constructor (New or newUncached).
type streamCorpus struct {
	name    string
	build   func(t *testing.T, newQ func(Options) *Q) *Q
	queries []string
}

func streamCorpora() []streamCorpus {
	return []streamCorpus{
		{
			name: "gbco",
			build: func(t *testing.T, newQ func(Options) *Q) *Q {
				q := newQ(DefaultOptions())
				q.AddMatcher(meta.New())
				if err := q.AddTables(datasets.GBCO().Tables...); err != nil {
					t.Fatal(err)
				}
				return q
			},
			queries: func() []string {
				var out []string
				for _, trial := range datasets.GBCO().Trials {
					out = append(out, trial.Keywords)
				}
				return out
			}(),
		},
		{
			name: "synthetic",
			build: func(t *testing.T, newQ func(Options) *Q) *Q {
				q := newQ(DefaultOptions())
				q.AddMatcher(meta.New())
				q.AddMatcher(mad.New())
				if err := q.AddTables(syntheticCorpus(t)...); err != nil {
					t.Fatal(err)
				}
				q.AlignAllPairs()
				return q
			},
			queries: []string{"alice widget", "bob gadget", "springfield sprocket", "'C1' item"},
		},
	}
}

// TestMaterialisedExecEquivalence pins branch execution at the pipeline
// level: a view's ranked result — produced by the planned batch's top-k union
// with its cross-branch subplan cache — must deep-equal the disjoint union of
// its branch queries executed one by one through relstore.Execute (no batch,
// no CSE, no early termination) on the same catalog generation, truncated to
// the view's k, with the full union's column list. The materialised reference
// executor itself is a relstore test oracle (oracle_test.go), gated against
// Execute there.
func TestMaterialisedExecEquivalence(t *testing.T) {
	for _, c := range streamCorpora() {
		t.Run(c.name, func(t *testing.T) {
			q := c.build(t, New)
			anyRows := false
			for _, kw := range c.queries {
				v, err := queryStr(q, kw)
				if err != nil {
					t.Fatalf("query %q: %v", kw, err)
				}
				m := v.Current()
				if len(m.Trees) == 0 {
					t.Errorf("query %q produced no trees; equivalence is vacuous", kw)
				}
				branches := make([]relstore.Branch, len(m.Queries))
				for i, cq := range m.Queries {
					rs, err := relstore.Execute(q.CurrentCatalog(), cq)
					if err != nil {
						t.Fatalf("query %q branch %d: %v", kw, i, err)
					}
					branches[i] = relstore.Branch{Result: rs, Cost: cq.Cost, Provenance: cq.Signature()}
				}
				full := relstore.DisjointUnion(branches)
				want := &relstore.UnionResult{Columns: full.Columns, Rows: full.TopK(v.K)}
				if !reflect.DeepEqual(m.Result, want) {
					t.Errorf("query %q: view result differs from branch-by-branch execution\nview: %v\nwant: %v",
						kw, m.Result, want)
				}
				anyRows = anyRows || len(m.Result.Rows) > 0
			}
			if !anyRows {
				t.Error("no query produced rows; equivalence is vacuous")
			}
		})
	}
}

// TestPlannerOffEquivalence pins the cost-based planner at the pipeline
// level now that no option turns it off: every branch of every materialised
// view is planned — PlanStats counts exactly the branches executed (query
// caches off, so each query materialises once) — and each branch's planned
// batch result, served through the shared-subplan cache, deep-equals the
// branch executed standalone. Planned ≡ naive spec order is the relstore
// oracle gate (executeOracle, FuzzPlanEquivalence).
func TestPlannerOffEquivalence(t *testing.T) {
	for _, c := range streamCorpora() {
		t.Run(c.name, func(t *testing.T) {
			q := c.build(t, newUncached)
			var branches int64
			for _, kw := range c.queries {
				v, err := queryStr(q, kw)
				if err != nil {
					t.Fatalf("query %q: %v", kw, err)
				}
				m := v.Current()
				if len(m.Queries) == 0 {
					t.Errorf("query %q produced no branch queries; equivalence is vacuous", kw)
				}
				branches += int64(len(m.Queries))
				cat := q.CurrentCatalog()
				bp, err := relstore.PlanBatch(cat, m.Queries)
				if err != nil {
					t.Fatalf("query %q: plan: %v", kw, err)
				}
				if got := bp.Stats().BranchesPlanned; got != int64(len(m.Queries)) {
					t.Errorf("query %q: batch planned %d branches, want %d", kw, got, len(m.Queries))
				}
				for i, cq := range m.Queries {
					want, err := relstore.Execute(cat, cq)
					if err != nil {
						t.Fatalf("query %q branch %d: %v", kw, i, err)
					}
					got, err := bp.Execute(i)
					if err != nil {
						t.Fatalf("query %q branch %d (batched): %v", kw, i, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("query %q branch %d: batched result differs from standalone\nbatched:    %v\nstandalone: %v",
							kw, i, got, want)
					}
				}
			}
			st := q.PlanStats()
			if st.BranchesPlanned != branches {
				t.Errorf("instance planned %d branches, views executed %d", st.BranchesPlanned, branches)
			}
			if st.BranchesPlanned == 0 || st.BranchesReordered > st.BranchesPlanned {
				t.Errorf("implausible PlanStats %+v", st)
			}
		})
	}
}

// TestTopKPruneEquivalence pins what early termination promises against the
// full materialisation it replaced, built here: every branch executed alone
// through relstore.Execute (no bound) and disjoint-unioned.
// The view must hold exactly that union's top-k prefix under its columns,
// with the α the full union gives — so only the tail beyond k goes
// uncomputed — and across the corpus some branch must actually have been
// skipped, or the prune is untested.
func TestTopKPruneEquivalence(t *testing.T) {
	for _, c := range streamCorpora() {
		t.Run(c.name, func(t *testing.T) {
			q := c.build(t, New)
			anyRows, truncated := false, false
			for _, kw := range c.queries {
				for _, k := range []int{2, defaultK} {
					rows, trunc := checkTopKPrefix(t, q, kw, k)
					anyRows, truncated = anyRows || rows, truncated || trunc
				}
			}
			if !anyRows || !truncated {
				t.Errorf("rows=%v truncated=%v: prefix equivalence is vacuous", anyRows, truncated)
			}
			if skipped := q.metrics.topkBranchesSkipped.Load(); skipped == 0 {
				t.Error("no branch was skipped over the corpus; the prune is untested")
			}
		})
	}
}

// checkTopKPrefix materialises one query at k and checks it against the full
// union (see TestTopKPruneEquivalence). It reports whether the view has rows
// and whether the full union has more than k.
func checkTopKPrefix(t *testing.T, q *Q, kw string, k int) (hasRows, truncated bool) {
	t.Helper()
	v, err := q.Query(Request{Keywords: ParseKeywords(kw), K: k})
	if err != nil {
		t.Fatalf("query %q k=%d: %v", kw, k, err)
	}
	m := v.Current()
	branches := make([]relstore.Branch, len(m.Queries))
	for i, cq := range m.Queries {
		rs, err := relstore.Execute(q.CurrentCatalog(), cq)
		if err != nil {
			t.Fatalf("query %q k=%d: branch %d: %v", kw, k, i, err)
		}
		branches[i] = relstore.Branch{Result: rs, Cost: cq.Cost, Provenance: cq.Signature()}
	}
	full := relstore.DisjointUnion(branches)
	if !reflect.DeepEqual(m.Result.Columns, full.Columns) {
		t.Errorf("query %q k=%d: unified columns diverged: %v vs %v", kw, k, m.Result.Columns, full.Columns)
	}
	want := full.TopK(k)
	if len(m.Result.Rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(m.Result.Rows, want)) {
		t.Errorf("query %q: view rows are not the full result's top-%d prefix\ngot:  %v\nwant: %v",
			kw, k, m.Result.Rows, want)
	}
	if a := fullAlpha(full, m, k); m.Alpha != a {
		t.Errorf("query %q k=%d: α = %v, the full union gives %v", kw, k, m.Alpha, a)
	}
	return len(want) > 0, len(full.Rows) > k
}

// fullAlpha is α computed as materialisation computed it over the full
// union: the k-th row's cost, else the last row's (raised to the worst
// tree's), else the worst tree's.
func fullAlpha(full *relstore.UnionResult, m Materialization, k int) float64 {
	var worstTree float64
	if len(m.Trees) > 0 {
		worstTree = m.Trees[len(m.Trees)-1].Cost
	}
	switch rows := full.Rows; {
	case len(rows) >= k:
		return rows[k-1].Cost
	case len(rows) > 0:
		return max(rows[len(rows)-1].Cost, worstTree)
	default:
		return worstTree
	}
}

// TestViewHoldsOnlyTopK pins the consumer-visible side of early termination:
// a view holds at most k rows even when its branches yield more, and
// feedback naming a row at or beyond k is ErrRowOutOfRange — the row a full
// materialisation would have had there was never computed.
func TestViewHoldsOnlyTopK(t *testing.T) {
	c := streamCorpora()[0]
	q := c.build(t, New)
	tested := false
	for _, kw := range c.queries {
		v, err := queryStr(q, kw)
		if err != nil {
			t.Fatalf("query %q: %v", kw, err)
		}
		m := v.Current()
		if len(m.Result.Rows) > v.K {
			t.Errorf("query %q: view holds %d rows, k = %d", kw, len(m.Result.Rows), v.K)
		}
		total := 0
		for i, cq := range m.Queries {
			rs, err := relstore.Execute(q.CurrentCatalog(), cq)
			if err != nil {
				t.Fatalf("query %q: branch %d: %v", kw, i, err)
			}
			total += len(rs.Rows)
		}
		if total <= v.K {
			continue
		}
		tested = true
		if len(m.Result.Rows) != v.K {
			t.Errorf("query %q: %d rows available, view holds %d, want k = %d", kw, total, len(m.Result.Rows), v.K)
		}
		if err := q.FeedbackRow(v, v.K, FeedbackValid); !errors.Is(err, ErrRowOutOfRange) {
			t.Errorf("query %q: feedback on row k = %d: got %v, want ErrRowOutOfRange", kw, v.K, err)
		}
	}
	if !tested {
		t.Fatal("no query yields more than k rows; the test is vacuous")
	}
}
