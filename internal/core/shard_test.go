package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// The property under test: the engine width — and with it the catalog's
// shard count — is invisible to every answer Q produces. Queries (top-k
// trees, conjunctive queries, ranked rows, α), registration reports
// (targets, alignment scores, comparison counts) and post-registration
// answers must be byte-identical at every width: sharding only changes how
// catalog work is partitioned and fanned, never what it computes.

// fixtureQAtWidth builds the fixture Q at an explicit width (so its catalog
// has that many shards), with the value-overlap filter on so registration
// exercises the fanned OverlappingAttrPairs path.
func fixtureQAtWidth(t *testing.T, width int) *Q {
	t.Helper()
	opts := DefaultOptions()
	opts.ValueOverlapFilter = true
	q := newAtWidth(width, opts)
	if got := q.CurrentCatalog().ShardCount(); got != width {
		t.Fatalf("ShardCount = %d at width %d", got, width)
	}
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

// shardProbes are the keyword queries the equivalence runs compare.
var shardProbes = []string{
	"'plasma membrane' 'Kringle domain'",
	"entry 'PUB0001'",
	"term name",
	"'Zinc finger' publication",
}

// TestShardedQueryEquivalence: the same keyword workload at every width
// materialises byte-identical views, including while concurrent
// readers hammer the instance (run under -race: the per-shard fan-out and
// lazy index builds race real query traffic).
func TestShardedQueryEquivalence(t *testing.T) {
	want := make([]string, len(shardProbes))
	ref := fixtureQAtWidth(t, 1)
	for i, probe := range shardProbes {
		v, err := queryStr(ref, probe)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprintView(v)
		ref.DropView(v.ID)
	}
	for _, n := range widths {
		q := fixtureQAtWidth(t, n)
		const readers = 6
		var wg sync.WaitGroup
		errc := make(chan error, readers)
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 2*len(shardProbes); i++ {
					k := (g + i) % len(shardProbes)
					v, err := queryStr(q, shardProbes[k])
					if err != nil {
						errc <- fmt.Errorf("width=%d reader %d: %v", n, g, err)
						return
					}
					if fp := fingerprintView(v); fp != want[k] {
						errc <- fmt.Errorf("width=%d reader %d: query %q diverged from the width-1 reference\ngot:\n%s\nwant:\n%s",
							n, g, shardProbes[k], fp, want[k])
						return
					}
					q.DropView(v.ID)
				}
				errc <- nil
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
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

// TestShardedRegistrationEquivalence: registering the same source at every
// width produces identical alignment scores, identical value-overlap
// filter decisions (the comparison counters pin them), and identical
// post-registration answers.
func TestShardedRegistrationEquivalence(t *testing.T) {
	run := func(width int) (string, string) {
		q := fixtureQAtWidth(t, width)
		if _, err := queryStr(q, shardProbes[1]); err != nil { // a persistent view for ViewBased targets
			t.Fatal(err)
		}
		rep, err := q.RegisterSource(jrnlTables(t), Exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		v, err := queryStr(q, "'Nature' 'PUB0001'")
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintReport(rep, &q.Stats), fingerprintView(v)
	}
	wantRep, wantView := run(1)
	for _, n := range widths {
		rep, view := run(n)
		if rep != wantRep {
			t.Errorf("width=%d: registration diverged from the width-1 reference\ngot:\n%s\nwant:\n%s", n, rep, wantRep)
		}
		if view != wantView {
			t.Errorf("width=%d: post-registration answer diverged\ngot:\n%s\nwant:\n%s", n, view, wantView)
		}
	}
}

// TestEngineWidthFollowsGOMAXPROCS pins where the width comes from: New
// shards the catalog by GOMAXPROCS, and a restore re-shards it at the
// restoring process's GOMAXPROCS with every view unchanged.
func TestEngineWidthFollowsGOMAXPROCS(t *testing.T) {
	q := fixtureQAtWidth(t, 3) // fails unless the catalog has 3 shards
	for _, probe := range shardProbes {
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
	if got := q2.CurrentCatalog().ShardCount(); got != 5 {
		t.Errorf("loaded ShardCount = %d, want 5", got)
	}
	saved, loaded := q.Views(), q2.Views()
	if len(loaded) != len(saved) || len(saved) != len(shardProbes) {
		t.Fatalf("views: saved %d, loaded %d, want %d", len(saved), len(loaded), len(shardProbes))
	}
	for i := range saved {
		if want, got := fingerprintView(saved[i]), fingerprintView(loaded[i]); got != want {
			t.Errorf("view %d changed across the re-sharding restore\nsaved:\n%s\nloaded:\n%s", i, want, got)
		}
	}
}
