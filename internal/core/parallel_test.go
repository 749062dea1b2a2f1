package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// The metamorphic property under test: a view materialised by a wide engine
// must be byte-identical — trees, query signatures and SQL, unified columns,
// ranked rows with provenance, and α — to the same view materialised by a
// one-wide engine, and a registration must report the same targets,
// alignment scores and comparison counts. fingerprintView captures
// everything a view exposes into one comparable string, fingerprintReport
// the width-invariant parts of a registration report. These tests are the
// one oracle for the engine width.
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
var widths = []int{2, 7, 8}

// newAtWidth is New on an n-wide machine: the engine reads its width
// (worker pools, execution slots) from GOMAXPROCS once, in New. No
// core test calls t.Parallel, so flipping the process-wide setting around
// New is safe.
func newAtWidth(n int, opts Options) *Q {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return New(opts)
}

// fixtureQAtWidth builds the fixture Q at an explicit width, with the
// value-overlap filter on so registration exercises OverlappingAttrPairs.
func fixtureQAtWidth(t *testing.T, width int) *Q {
	t.Helper()
	opts := DefaultOptions()
	opts.ValueOverlapFilter = true
	q := newAtWidth(width, opts)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	return q
}

// fixtureProbes are the keyword queries asked of the fixture Q.
var fixtureProbes = []string{
	"'plasma membrane' 'Kringle domain'",
	"entry 'PUB0001'",
	"term name",
}

// fingerprintReport flattens the parts of a registration report that must
// be width-invariant: the relations compared, every alignment's best
// confidence, and the comparison counters.
func fingerprintReport(rep *RegisterReport, stats *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "source=%s new=%v targets=%v\n", rep.Source, rep.NewRelations, rep.TargetsCompared)
	pairs := make([]string, 0, len(rep.AlignmentsByPair))
	for k, conf := range rep.AlignmentsByPair {
		pairs = append(pairs, fmt.Sprintf("%s=%.12f", k, conf))
	}
	sort.Strings(pairs)
	fmt.Fprintf(&b, "alignments=%v\n", pairs)
	fmt.Fprintf(&b, "stats matcher=%d attr=%d unfiltered=%d\n",
		stats.BaseMatcherCalls(), stats.AttrComparisons(), stats.ColumnComparisonsUnfiltered())
	return b.String()
}

// equivCorpus is one dataset of the equivalence suite: a builder that loads
// a fresh Q at the given width, the keyword queries to ask, and a new
// source whose registration under strategy (and the Refresh it triggers)
// must also be order-independent.
type equivCorpus struct {
	name      string
	build     func(t *testing.T, width int) *Q
	queries   []string
	newTables func(t *testing.T) []*relstore.Table
	strategy  AlignStrategy
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
			queries:  datasets.InterProGO().Queries,
			strategy: ViewBased,
			newTables: func(t *testing.T) []*relstore.Table {
				rel := &relstore.Relation{Source: "ext", Name: "citations",
					Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "cited_by"}}}
				tb, err := relstore.NewTable(rel, [][]string{
					{"PUB00001", "PUB00002"}, {"PUB00003", "PUB00001"}})
				if err != nil {
					t.Fatal(err)
				}
				return []*relstore.Table{tb}
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
			strategy: ViewBased,
			newTables: func(t *testing.T) []*relstore.Table {
				rel := &relstore.Relation{Source: "ext", Name: "annotations",
					Attributes: []relstore.Attribute{{Name: "pubmed_id"}, {Name: "label"}}}
				tb, err := relstore.NewTable(rel, [][]string{
					{"PUB00001", "curated"}, {"PUB00004", "automatic"}})
				if err != nil {
					t.Fatal(err)
				}
				return []*relstore.Table{tb}
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
			strategy: ViewBased,
			newTables: func(t *testing.T) []*relstore.Table {
				rel := &relstore.Relation{Source: "ext", Name: "reviews",
					Attributes: []relstore.Attribute{{Name: "customer_id"}, {Name: "stars"}}}
				tb, err := relstore.NewTable(rel, [][]string{
					{"C1", "5"}, {"C3", "2"}})
				if err != nil {
					t.Fatal(err)
				}
				return []*relstore.Table{tb}
			},
		},
		{
			name:      "fixture",
			build:     fixtureQAtWidth,
			queries:   fixtureProbes,
			newTables: jrnlTables,
			strategy:  Exhaustive,
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
// byte-identical views. Each wide engine is queried by several concurrent
// readers (run under -race: lazy index builds and the execution slots race
// real query traffic).
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
			const readers = 4
			for _, w := range widths {
				wide := c.build(t, w)
				var wg sync.WaitGroup
				errc := make(chan error, readers)
				for g := 0; g < readers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := range c.queries {
							i := (g + j) % len(c.queries)
							v, err := queryStr(wide, c.queries[i])
							if err != nil {
								errc <- fmt.Errorf("width %d reader %d query %q: %v", w, g, c.queries[i], err)
								return
							}
							if got := fingerprintView(v); got != want[i] {
								errc <- fmt.Errorf("query %q: width %d and width 1 views differ\nwidth 1:\n%s\nwidth %d:\n%s", c.queries[i], w, want[i], w, got)
								return
							}
							wide.DropView(v.ID)
						}
					}()
				}
				wg.Wait()
				close(errc)
				for err := range errc {
					t.Error(err)
				}
			}
		})
	}
}

// TestParallelRefreshEquivalence registers a new source on engines of every
// width (registration refreshes every persistent view) and then reprices
// every edge with SetWeights, which refreshes them again, checking that the
// registration report and all views remain identical to the one-wide
// engine's.
func TestParallelRefreshEquivalence(t *testing.T) {
	for _, c := range equivCorpora() {
		t.Run(c.name, func(t *testing.T) {
			run := func(width int) (string, []string) {
				q := c.build(t, width)
				for _, kw := range c.queries {
					if _, err := queryStr(q, kw); err != nil {
						t.Fatalf("width %d query %q: %v", width, kw, err)
					}
				}
				rep, err := q.RegisterSource(c.newTables(t), c.strategy)
				if err != nil {
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
				return fingerprintReport(rep, &q.Stats), fps
			}
			wantRep, want := run(1)
			for _, w := range widths {
				rep, got := run(w)
				if rep != wantRep {
					t.Errorf("width %d: registration diverged from width 1\nwidth 1:\n%s\nwidth %d:\n%s", w, wantRep, w, rep)
				}
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

// TestEngineWidthFollowsGOMAXPROCS pins where the width comes from: New
// sizes the execution slots by GOMAXPROCS, and a snapshot restored under
// another GOMAXPROCS takes the restoring process's width with every view
// unchanged.
func TestEngineWidthFollowsGOMAXPROCS(t *testing.T) {
	q := fixtureQAtWidth(t, 3)
	if got := cap(q.execSem); got != 3 {
		t.Fatalf("execSem capacity = %d at width 3", got)
	}
	for _, probe := range fixtureProbes {
		if _, err := queryStr(q, probe); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var q2 *Q
	func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(5))
		var err error
		if q2, err = Load(bytes.NewReader(buf.Bytes()), q.Options()); err != nil {
			t.Fatal(err)
		}
	}()
	if got := cap(q2.execSem); got != 5 {
		t.Errorf("loaded execSem capacity = %d, want 5", got)
	}
	saved, loaded := q.Views(), q2.Views()
	if len(loaded) != len(saved) || len(saved) != len(fixtureProbes) {
		t.Fatalf("views: saved %d, loaded %d, want %d", len(saved), len(loaded), len(fixtureProbes))
	}
	for i := range saved {
		if want, got := fingerprintView(saved[i]), fingerprintView(loaded[i]); got != want {
			t.Errorf("view %d changed across a restore at another width\nsaved:\n%s\nloaded:\n%s", i, want, got)
		}
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
