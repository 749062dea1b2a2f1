package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// The metamorphic property under test: a view materialised by a wide engine
// must be byte-identical — trees, query signatures and SQL, unified columns,
// ranked rows with provenance, and α — to the same view materialised by a
// one-wide engine. fingerprintView captures everything a view exposes into
// one comparable string. These tests, with the sharded suites in
// shard_test.go, are the one oracle for the engine width.
func fingerprintView(v *View) string {
	// One coherent materialisation: the individual accessors could straddle
	// a concurrent refresh and mix generations.
	return fingerprintMat(v, v.Current())
}

// fingerprintMat is fingerprintView of one given materialisation of v, for
// callers that must pair the fingerprint with that materialisation's epoch.
func fingerprintMat(v *View, m Materialization) string {
	var b strings.Builder
	fmt.Fprintf(&b, "keywords=%v k=%d alpha=%.12f\n", v.Keywords, v.K, m.Alpha)
	for _, t := range m.Trees {
		fmt.Fprintf(&b, "tree %s cost=%.12f\n", t.Key(), t.Cost)
	}
	for _, cq := range m.Queries {
		fmt.Fprintf(&b, "query sig=%s\nquery sql=%s\n", cq.Signature(), cq.SQL())
	}
	fmt.Fprintf(&b, "cols=%s\n", strings.Join(m.Result.Columns, "|"))
	for _, r := range m.Result.Rows {
		fmt.Fprintf(&b, "row %q cost=%.12f branch=%d prov=%s\n",
			r.Values, r.Cost, r.Branch, r.Provenance)
	}
	return b.String()
}

// widths are the engine widths the width oracles compare against width 1.
// At each, the fixtures' tables hash unevenly, so some shards hold several
// tables and others none.
var widths = []int{2, 7, 8}

// newAtWidth is New on an n-wide machine: the engine reads its width (shard
// count, worker pools, execution slots) from GOMAXPROCS once, in New. No
// core test calls t.Parallel, so flipping the process-wide setting around
// New is safe.
func newAtWidth(n int, opts Options) *Q {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return New(opts)
}

// equivCorpus is one dataset of the equivalence suite: a builder that loads
// a fresh Q at the given width, the keyword queries to ask, and a new
// source whose registration (and the Refresh it triggers) must also be
// order-independent.
type equivCorpus struct {
	name     string
	build    func(t *testing.T, width int) *Q
	queries  []string
	newTable func(t *testing.T) *relstore.Table
}

func equivCorpora() []equivCorpus {
	return []equivCorpus{
		{
			name: "interpro",
			build: func(t *testing.T, width int) *Q {
				q := newAtWidth(width, DefaultOptions())
				q.AddMatcher(meta.New())
				q.AddMatcher(mad.New())
				corpus := datasets.InterProGO()
				if err := q.AddTables(corpus.Tables...); err != nil {
					t.Fatal(err)
				}
				q.AlignAllPairs()
				return q
			},
			queries: datasets.InterProGO().Queries,
			newTable: func(t *testing.T) *relstore.Table {
				rel := &relstore.Relation{Source: "ext", Name: "citations",
					Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "cited_by"}}}
				tb, err := relstore.NewTable(rel, [][]string{
					{"PUB00001", "PUB00002"}, {"PUB00003", "PUB00001"}})
				if err != nil {
					t.Fatal(err)
				}
				return tb
			},
		},
		{
			name: "gbco",
			build: func(t *testing.T, width int) *Q {
				q := newAtWidth(width, DefaultOptions())
				q.AddMatcher(meta.New())
				corpus := datasets.GBCO()
				if err := q.AddTables(corpus.Tables...); err != nil {
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
			newTable: func(t *testing.T) *relstore.Table {
				rel := &relstore.Relation{Source: "ext", Name: "annotations",
					Attributes: []relstore.Attribute{{Name: "pubmed_id"}, {Name: "label"}}}
				tb, err := relstore.NewTable(rel, [][]string{
					{"PUB00001", "curated"}, {"PUB00004", "automatic"}})
				if err != nil {
					t.Fatal(err)
				}
				return tb
			},
		},
		{
			name: "synthetic",
			build: func(t *testing.T, width int) *Q {
				q := newAtWidth(width, DefaultOptions())
				q.AddMatcher(meta.New())
				q.AddMatcher(mad.New())
				if err := q.AddTables(syntheticCorpus(t)...); err != nil {
					t.Fatal(err)
				}
				q.AlignAllPairs()
				return q
			},
			queries: []string{
				"alice widget",
				"bob gadget",
				"springfield sprocket",
				"'C1' item",
				"carol city",
			},
			newTable: func(t *testing.T) *relstore.Table {
				rel := &relstore.Relation{Source: "ext", Name: "reviews",
					Attributes: []relstore.Attribute{{Name: "customer_id"}, {Name: "stars"}}}
				tb, err := relstore.NewTable(rel, [][]string{
					{"C1", "5"}, {"C3", "2"}})
				if err != nil {
					t.Fatal(err)
				}
				return tb
			},
		},
	}
}

// syntheticCorpus is a small deterministic two-source schema with
// overlapping join values, so the matchers must discover the customer_id
// association and queries union rows from several Steiner trees.
func syntheticCorpus(t *testing.T) []*relstore.Table {
	t.Helper()
	mk := func(rel *relstore.Relation, rows [][]string) *relstore.Table {
		tb, err := relstore.NewTable(rel, rows)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	customers := &relstore.Relation{Source: "crm", Name: "customers",
		Attributes: []relstore.Attribute{{Name: "customer_id"}, {Name: "name"}, {Name: "city"}}}
	orders := &relstore.Relation{Source: "sales", Name: "orders",
		Attributes: []relstore.Attribute{{Name: "order_id"}, {Name: "customer_id"}, {Name: "item"}}}
	shipments := &relstore.Relation{Source: "sales", Name: "shipments",
		Attributes: []relstore.Attribute{{Name: "order_id"}, {Name: "carrier"}},
		ForeignKeys: []relstore.ForeignKey{
			{FromAttr: "order_id", ToRelation: "sales.orders", ToAttr: "order_id"}}}
	return []*relstore.Table{
		mk(customers, [][]string{
			{"C1", "alice", "springfield"},
			{"C2", "bob", "shelbyville"},
			{"C3", "carol", "springfield"},
		}),
		mk(orders, [][]string{
			{"O1", "C1", "widget"},
			{"O2", "C2", "gadget"},
			{"O3", "C1", "sprocket"},
			{"O4", "C3", "widget"},
		}),
		mk(shipments, [][]string{
			{"O1", "postal"},
			{"O2", "courier"},
			{"O4", "postal"},
		}),
	}
}

// TestParallelQueryEquivalence materialises every dataset query on a
// one-wide engine and on engines of every width in widths, and demands
// byte-identical views.
func TestParallelQueryEquivalence(t *testing.T) {
	for _, c := range equivCorpora() {
		t.Run(c.name, func(t *testing.T) {
			serial := c.build(t, 1)
			want := make([]string, len(c.queries))
			for i, kw := range c.queries {
				v, err := queryStr(serial, kw)
				if err != nil {
					t.Fatalf("serial query %q: %v", kw, err)
				}
				if len(v.Trees()) == 0 {
					t.Errorf("query %q produced no trees; equivalence is vacuous", kw)
				}
				want[i] = fingerprintView(v)
			}
			for _, w := range widths {
				wide := c.build(t, w)
				for i, kw := range c.queries {
					v, err := queryStr(wide, kw)
					if err != nil {
						t.Fatalf("width %d query %q: %v", w, kw, err)
					}
					if got := fingerprintView(v); got != want[i] {
						t.Errorf("query %q: width %d and width 1 views differ\nwidth 1:\n%s\nwidth %d:\n%s", kw, w, want[i], w, got)
					}
				}
			}
		})
	}
}

// TestParallelRefreshEquivalence registers a new source on engines of every
// width (registration refreshes every persistent view) and then reprices
// every edge with SetWeights, which refreshes them again, checking that all
// views remain byte-identical to the one-wide engine's.
func TestParallelRefreshEquivalence(t *testing.T) {
	for _, c := range equivCorpora() {
		t.Run(c.name, func(t *testing.T) {
			run := func(width int) []string {
				q := c.build(t, width)
				for _, kw := range c.queries {
					if _, err := queryStr(q, kw); err != nil {
						t.Fatalf("width %d query %q: %v", width, kw, err)
					}
				}
				if _, err := q.RegisterSource([]*relstore.Table{c.newTable(t)}, ViewBased); err != nil {
					t.Fatalf("width %d register: %v", width, err)
				}
				w := q.CurrentGraph().Weights().Clone()
				w["default"] += 0.05
				if err := q.SetWeights(w); err != nil {
					t.Fatalf("width %d set weights: %v", width, err)
				}
				var fps []string
				for _, v := range q.Views() {
					fps = append(fps, fingerprintView(v))
				}
				return fps
			}
			want := run(1)
			for _, w := range widths {
				got := run(w)
				if len(got) != len(want) {
					t.Fatalf("width %d: view counts differ: %d vs %d", w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("width %d: view %d diverged after refresh\nwidth 1:\n%s\nwidth %d:\n%s", w, i, want[i], w, got[i])
					}
				}
			}
		})
	}
}

// TestRunIndexed pins the pool helper's contract: full coverage of indexes,
// bounded workers, and lowest-index error selection (serial semantics).
func TestRunIndexed(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		done := make([]bool, 50)
		if err := runIndexed(len(done), workers, func(i int) error {
			done[i] = true
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, ok := range done {
			if !ok {
				t.Fatalf("workers=%d: index %d never ran", workers, i)
			}
		}
	}

	errLow, errHigh := errors.New("low"), errors.New("high")
	err := runIndexed(20, 8, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 15:
			return errHigh
		}
		return nil
	})
	if err != errLow {
		t.Fatalf("error = %v, want lowest-index error %v", err, errLow)
	}

	if err := runIndexed(0, 4, func(i int) error { return errLow }); err != nil {
		t.Fatalf("n=0: %v", err)
	}

	// Side effects must not depend on the worker count: even serially, an
	// early error must not stop later indexes from running (a failing
	// parallel Refresh rematerialises every view; serial must match).
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 10)
		err := runIndexed(len(ran), workers, func(i int) error {
			ran[i] = true
			if i == 2 {
				return errLow
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: error = %v, want %v", workers, err, errLow)
		}
		for i, ok := range ran {
			if !ok {
				t.Fatalf("workers=%d: index %d skipped after error", workers, i)
			}
		}
	}
}
