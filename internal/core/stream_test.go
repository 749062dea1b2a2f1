package core

import (
	"reflect"
	"testing"

	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// This file pins branch execution at the pipeline level: a view's ranked
// result must equal its branch queries executed one by one, and the
// top-k-pruned streamed union (Options.TopKPrune) must agree with the full
// path on everything but the untaken tail.

// streamCorpus is one dataset of the executor-equivalence suite, with a
// builder parameterised over Options so a knob can be set at construction
// time.
type streamCorpus struct {
	name    string
	build   func(t *testing.T, mutate func(*Options)) *Q
	queries []string
}

func streamCorpora() []streamCorpus {
	return []streamCorpus{
		{
			name: "gbco",
			build: func(t *testing.T, mutate func(*Options)) *Q {
				opts := DefaultOptions()
				mutate(&opts)
				q := New(opts)
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
			build: func(t *testing.T, mutate func(*Options)) *Q {
				opts := DefaultOptions()
				mutate(&opts)
				q := New(opts)
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
// level: a view's ranked result — produced by the planned batch with its
// cross-branch subplan cache — must deep-equal the disjoint union of its
// branch queries executed one by one through relstore.Execute (no batch, no
// CSE) on the same catalog generation. The materialised reference executor
// itself is a relstore test oracle (oracle_test.go), gated against Execute
// there.
func TestMaterialisedExecEquivalence(t *testing.T) {
	for _, c := range streamCorpora() {
		t.Run(c.name, func(t *testing.T) {
			q := c.build(t, func(o *Options) {})
			anyRows := false
			for _, kw := range c.queries {
				v, err := q.Query(kw)
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
				if want := relstore.DisjointUnion(branches); !reflect.DeepEqual(v.Result(), want) {
					t.Errorf("query %q: view result differs from branch-by-branch execution\nview: %v\nwant: %v",
						kw, v.Result(), want)
				}
				anyRows = anyRows || len(v.Result().Rows) > 0
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
			q := c.build(t, func(o *Options) {
				o.ExpansionCacheEntries = -1
				o.MaterializationCacheEntries = -1
			})
			var branches int64
			for _, kw := range c.queries {
				v, err := q.Query(kw)
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

// TestTopKPruneEquivalence compares a pruned instance against the default:
// everything except the untaken result tail must agree — trees, branch
// queries, columns, α, and the ranked rows up to k, which is exactly what
// pruning promises (the tail is never computed, by design).
func TestTopKPruneEquivalence(t *testing.T) {
	for _, c := range streamCorpora() {
		t.Run(c.name, func(t *testing.T) {
			full := c.build(t, func(o *Options) {})
			pruned := c.build(t, func(o *Options) { o.TopKPrune = true })
			anyRows := false
			for _, kw := range c.queries {
				vf, err := full.Query(kw)
				if err != nil {
					t.Fatalf("full query %q: %v", kw, err)
				}
				vp, err := pruned.Query(kw)
				if err != nil {
					t.Fatalf("pruned query %q: %v", kw, err)
				}
				mf, mp := vf.Current(), vp.Current()
				if mf.Alpha != mp.Alpha {
					t.Errorf("query %q: α diverged under pruning: %v vs %v", kw, mf.Alpha, mp.Alpha)
				}
				if len(mf.Trees) != len(mp.Trees) {
					t.Fatalf("query %q: tree count diverged: %d vs %d", kw, len(mf.Trees), len(mp.Trees))
				}
				for i := range mf.Trees {
					if mf.Trees[i].Key() != mp.Trees[i].Key() || mf.Trees[i].Cost != mp.Trees[i].Cost {
						t.Errorf("query %q: tree %d diverged", kw, i)
					}
				}
				if len(mf.Queries) != len(mp.Queries) {
					t.Fatalf("query %q: branch count diverged", kw)
				}
				for i := range mf.Queries {
					if mf.Queries[i].Signature() != mp.Queries[i].Signature() {
						t.Errorf("query %q: branch %d signature diverged", kw, i)
					}
				}
				if !reflect.DeepEqual(mf.Result.Columns, mp.Result.Columns) {
					t.Errorf("query %q: unified columns diverged: %v vs %v", kw, mf.Result.Columns, mp.Result.Columns)
				}
				want := mf.Result.TopK(vf.K)
				got := mp.Result.Rows
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("query %q: pruned rows are not the full result's top-%d prefix\ngot:  %v\nwant: %v",
						kw, vf.K, got, want)
				}
				if len(want) > 0 {
					anyRows = true
				}
			}
			if !anyRows {
				t.Error("no query produced rows; prefix equivalence is vacuous")
			}
		})
	}
}
