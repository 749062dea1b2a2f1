package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// The property under test: sharding is invisible. A catalog hash-partitioned
// into ANY number of shards must answer every operation — FindValues (and
// the scanFindValues oracle), value sets and their derived similarities,
// overlap pair generation, batch execution — byte-identically to the
// single-shard reference, including concurrent readers racing lazy index
// builds. The shard count only sizes the fan-outs and write locality.

// shardCounts is the battery every equivalence test runs at: the degenerate
// single shard, a count below and above typical table counts (so some
// shards hold several tables and others none), and the default.
func shardCounts() []int {
	counts := []int{1, 2, 7}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 7 {
		counts = append(counts, g)
	}
	return counts
}

// catalogAt builds a catalog over the given tables at an explicit shard
// count; its fan-outs run one worker per shard, so multi-shard counts
// exercise the multi-worker merge paths even on single-core machines.
func catalogAt(t *testing.T, shards int, tables []*Table) *Catalog {
	t.Helper()
	c := NewCatalogSharded(shards)
	for _, tb := range tables {
		if err := c.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestShardedFindValuesEquivalence is the core metamorphic suite: across
// randomised catalogs, every shard count must produce FindValues answers
// deep-equal to the single-shard reference scan (scanFindValues) — content,
// row counts, order and nil-ness — through both the index and the scan.
func TestShardedFindValuesEquivalence(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			tables := randomIndexTables(r, 16) // wide enough to span 7 shards
			ref := catalogAt(t, 1, tables)
			kws := indexKeywords(r, ref)
			want := make([][]ValueHit, len(kws))
			for i, kw := range kws {
				want[i] = scanFindValues(ref, kw)
			}
			for _, n := range shardCounts() {
				c := catalogAt(t, n, tables)
				for i, kw := range kws {
					if got := c.FindValues(kw); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("shards=%d: FindValues(%q) diverged\ngot:  %v\nwant: %v", n, kw, got, want[i])
					}
					if got := scanFindValues(c, kw); !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("shards=%d: scanFindValues(%q) diverged\ngot:  %v\nwant: %v", n, kw, got, want[i])
					}
				}
			}
		})
	}
}

// TestShardedValueDerivationsEquivalence pins everything derived from value
// sets across shard counts: ValueSet contents, ValueOverlap counts,
// bit-identical ValueJaccard, and the fanned OverlappingAttrPairs against a
// serial double-loop reference.
func TestShardedValueDerivationsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	tables := randomIndexTables(r, 16)
	ref := catalogAt(t, 1, tables)
	refs := ref.AttrRefs()
	rels := ref.Relations()

	// Serial reference for OverlappingAttrPairs.
	serialPairs := func(c *Catalog, a, b *Relation) map[[2]AttrRef]bool {
		out := make(map[[2]AttrRef]bool)
		for _, aa := range a.Attributes {
			ra := AttrRef{Relation: a.QualifiedName(), Attr: aa.Name}
			for _, bb := range b.Attributes {
				rb := AttrRef{Relation: b.QualifiedName(), Attr: bb.Name}
				if c.ValueOverlap(ra, rb) > 0 {
					out[[2]AttrRef{ra, rb}] = true
				}
			}
		}
		return out
	}

	for _, n := range shardCounts() {
		c := catalogAt(t, n, tables)
		c.BuildValueIndex(4) // segment-derived value sets on this side
		for _, ar := range refs {
			if got, want := c.ValueSet(ar), ref.ValueSet(ar); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: ValueSet(%v) diverged", n, ar)
			}
		}
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if got, want := c.ValueOverlap(refs[i], refs[j]), ref.ValueOverlap(refs[i], refs[j]); got != want {
					t.Fatalf("shards=%d: ValueOverlap(%v, %v) = %d, want %d", n, refs[i], refs[j], got, want)
				}
				if got, want := c.ValueJaccard(refs[i], refs[j]), ref.ValueJaccard(refs[i], refs[j]); got != want {
					t.Fatalf("shards=%d: ValueJaccard(%v, %v) = %v, want %v", n, refs[i], refs[j], got, want)
				}
			}
		}
		for i := 0; i < len(rels); i++ {
			for j := 0; j < len(rels); j++ {
				if i == j {
					continue
				}
				got := c.OverlappingAttrPairs(rels[i], rels[j])
				want := serialPairs(ref, rels[i], rels[j])
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d: OverlappingAttrPairs(%s, %s) diverged\ngot:  %v\nwant: %v",
						n, rels[i].QualifiedName(), rels[j].QualifiedName(), got, want)
				}
			}
		}
	}
}

// TestShardedConcurrentReaders hammers a multi-shard catalog whose segments
// have NOT been pre-built from many goroutines, so per-shard lazy builds
// race with each other, with the per-shard fan-out workers, and with
// ValueSet derivations. Run under -race; every answer must equal the
// quiesced single-shard reference.
func TestShardedConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	tables := randomIndexTables(r, 16)
	ref := catalogAt(t, 1, tables)
	kws := []string{"membrane", "GO:0005886", "ab", "é", "plasma membrane", "005886", "zzqqx", "", "Kringle domain"}
	want := make([][]ValueHit, len(kws))
	for i, kw := range kws {
		want[i] = scanFindValues(ref, kw)
	}
	refs := ref.AttrRefs()

	for _, n := range shardCounts()[1:] { // multi-shard counts only
		c := catalogAt(t, n, tables)
		const readers = 8
		const rounds = 16
		var wg sync.WaitGroup
		errc := make(chan error, readers)
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					k := (g + i) % len(kws)
					if got := c.FindValues(kws[k]); !reflect.DeepEqual(got, want[k]) {
						errc <- fmt.Errorf("shards=%d reader %d: FindValues(%q) = %v, want %v", n, g, kws[k], got, want[k])
						return
					}
					ar := refs[(g*rounds+i)%len(refs)]
					if got := c.ValueSet(ar); !reflect.DeepEqual(got, ref.ValueSet(ar)) {
						errc <- fmt.Errorf("shards=%d reader %d: ValueSet(%v) diverged", n, g, ar)
						return
					}
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

// TestShardedCloneWriteLocality pins the write-side point of sharding: a
// registration (Clone + AddTable) copies ONLY the shards its new tables
// hash into — every other shard stays pointer-identical with the original —
// and shares built index segments, so the original's answers never change
// and the clone indexes only its own additions.
func TestShardedCloneWriteLocality(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tables := randomIndexTables(r, 16)
	c := catalogAt(t, 7, tables)
	c.BuildValueIndex(4)
	if got := c.IndexedRelations(); got != c.NumRelations() {
		t.Fatalf("IndexedRelations = %d, want %d", got, c.NumRelations())
	}
	wantOrig := c.FindValues("membrane")

	clone := c.Clone()
	if got := clone.IndexedRelations(); got != clone.NumRelations() {
		t.Fatalf("clone should inherit built segments: %d of %d", got, clone.NumRelations())
	}

	rel := &Relation{Source: "new", Name: "notes", Attributes: []Attribute{{Name: "body"}}}
	tb, err := NewTable(rel, [][]string{{"membrane transport"}, {"unrelated"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	clone.EnsureIndexed("new.notes")

	touched := clone.shardOf("new.notes")
	for si := range clone.shards {
		same := clone.shards[si] == c.shards[si]
		if si == touched && same {
			t.Errorf("shard %d was written but is still shared with the original", si)
		}
		if si != touched && !same {
			t.Errorf("shard %d was not written but was copied", si)
		}
		// Caches are shared even for the copied shard: segments build once.
		if clone.shards[si].index != c.shards[si].index || clone.shards[si].values != c.shards[si].values {
			t.Errorf("shard %d caches were not shared across the clone", si)
		}
	}

	if got := clone.IndexedRelations(); got != clone.NumRelations() {
		t.Fatalf("clone IndexedRelations = %d, want %d (exactly the new segment added)", got, clone.NumRelations())
	}
	if got, want := clone.FindValues("membrane"), scanFindValues(clone, "membrane"); !reflect.DeepEqual(got, want) {
		t.Fatalf("clone index diverged from scan after AddTable\nindex: %v\nscan:  %v", got, want)
	}
	if !reflect.DeepEqual(c.FindValues("membrane"), wantOrig) {
		t.Fatal("original catalog's answer changed under the clone's write")
	}

	// The original keeps its own copy-on-write independence too: adding a
	// table to IT (after the clone detached) must not appear in the clone.
	rel2 := &Relation{Source: "orig", Name: "extra", Attributes: []Attribute{{Name: "v"}}}
	tb2, err := NewTable(rel2, [][]string{{"membrane fusion"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tb2); err != nil {
		t.Fatal(err)
	}
	if clone.Table("orig.extra") != nil {
		t.Fatal("clone sees a table added to the original after Clone")
	}
	if c.Table("new.notes") != nil {
		t.Fatal("original sees the clone's table")
	}
}

// TestExecuteBatchEquivalence pins the batch executor against a serial
// Execute loop: identical results in index order at any worker count, and
// serial error semantics (the lowest failing index wins).
func TestExecuteBatchEquivalence(t *testing.T) {
	c := testCatalog(t)
	mkq := func(rel, attr, val string) *ConjunctiveQuery {
		return &ConjunctiveQuery{
			Atoms:   []Atom{{Relation: rel, Alias: "t0"}},
			Selects: []SelCond{{Alias: "t0", Attr: attr, Op: OpContains, Value: val}},
			Project: []ProjCol{{Alias: "t0", Attr: attr, As: attr}},
		}
	}
	queries := []*ConjunctiveQuery{
		mkq("go.term", "name", "membrane"),
		mkq("ip.entry", "name", "domain"),
		mkq("ip.entry", "entry_ac", "IPR"),
		mkq("go.term", "acc", "GO"),
		mkq("ip.interpro2go", "go_id", "0005886"),
	}
	want := make([]*ResultSet, len(queries))
	for i, q := range queries {
		rs, err := Execute(c, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rs
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := ExecuteBatch(c, queries, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: batch diverged from serial execution", workers)
		}
	}
	// Error semantics: two failing queries, the lower index's error surfaces.
	bad := append([]*ConjunctiveQuery{}, queries...)
	bad[1] = mkq("no.such", "a", "x")
	bad[3] = mkq("also.missing", "b", "y")
	wantErr := ""
	for _, q := range bad {
		if _, err := Execute(c, q); err != nil {
			wantErr = err.Error()
			break
		}
	}
	for _, workers := range []int{1, 4} {
		if _, err := ExecuteBatch(c, bad, workers); err == nil || err.Error() != wantErr {
			t.Fatalf("workers=%d: error = %v, want %q", workers, err, wantErr)
		}
	}
}

// TestShardCountFixedAcrossClones pins that clones inherit the shard count.
func TestShardCountFixedAcrossClones(t *testing.T) {
	c := NewCatalogSharded(5)
	clone := c.Clone()
	if clone.ShardCount() != 5 {
		t.Errorf("clone ShardCount = %d, want 5", clone.ShardCount())
	}
	if NewCatalogSharded(0).ShardCount() != runtime.GOMAXPROCS(0) {
		t.Errorf("default shard count should be GOMAXPROCS")
	}
}
