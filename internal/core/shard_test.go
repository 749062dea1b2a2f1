package core

import (
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

// The property under test: Options.Shards is invisible to every answer Q
// produces. Queries (top-k trees, conjunctive queries, ranked rows, α),
// registration reports (targets, alignment scores, comparison counts) and
// post-registration answers must be byte-identical at every shard count —
// sharding only changes how catalog work is partitioned and fanned, never
// what it computes.

// shardCountBattery mirrors the relstore suite: the degenerate single
// shard, counts below and above the fixture's table count, and the default.
func shardCountBattery() []int {
	counts := []int{1, 2, 7}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 7 {
		counts = append(counts, g)
	}
	return counts
}

// fixtureQAtShards builds the fixture Q at an explicit shard count, with the
// value-overlap filter on so registration exercises the fanned
// OverlappingAttrPairs path.
func fixtureQAtShards(t *testing.T, shards int) *Q {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = shards
	opts.Parallelism = 4 // exercise the fan-out merge paths deterministically
	opts.ValueOverlapFilter = true
	q := New(opts)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	q.AddHandCodedAssociation(
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

// TestShardedQueryEquivalence: the same keyword workload at every shard
// count materialises byte-identical views, including while concurrent
// readers hammer the instance (run under -race: the per-shard fan-out and
// lazy index builds race real query traffic).
func TestShardedQueryEquivalence(t *testing.T) {
	want := make([]string, len(shardProbes))
	ref := fixtureQAtShards(t, 1)
	for i, probe := range shardProbes {
		v, err := queryStr(ref, probe)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprintView(v)
		ref.DropView(v.ID)
	}
	for _, n := range shardCountBattery() {
		q := fixtureQAtShards(t, n)
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
						errc <- fmt.Errorf("shards=%d reader %d: %v", n, g, err)
						return
					}
					if fp := fingerprintView(v); fp != want[k] {
						errc <- fmt.Errorf("shards=%d reader %d: query %q diverged from the single-shard reference\ngot:\n%s\nwant:\n%s",
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
// be shard-invariant: the relations compared, every alignment's best
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
// shard count produces identical alignment scores, identical value-overlap
// filter decisions (the comparison counters pin them), and identical
// post-registration answers.
func TestShardedRegistrationEquivalence(t *testing.T) {
	run := func(shards int) (string, string) {
		q := fixtureQAtShards(t, shards)
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
	for _, n := range shardCountBattery()[1:] {
		rep, view := run(n)
		if rep != wantRep {
			t.Errorf("shards=%d: registration diverged from the single-shard reference\ngot:\n%s\nwant:\n%s", n, rep, wantRep)
		}
		if view != wantView {
			t.Errorf("shards=%d: post-registration answer diverged\ngot:\n%s\nwant:\n%s", n, view, wantView)
		}
	}
}

// TestShardOptionPlumbing pins the knob itself: the catalog inherits
// Options.Shards, defaults to GOMAXPROCS, and survives SetParallelism.
func TestShardOptionPlumbing(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 5
	q := New(opts)
	if got := q.Catalog.ShardCount(); got != 5 {
		t.Errorf("ShardCount = %d, want 5", got)
	}
	q.SetParallelism(2)
	if got := q.CurrentCatalog().ShardCount(); got != 5 {
		t.Errorf("ShardCount after SetParallelism = %d, want 5", got)
	}
	if got := New(DefaultOptions()).Catalog.ShardCount(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default ShardCount = %d, want GOMAXPROCS", got)
	}
}
