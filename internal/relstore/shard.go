package relstore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the sharding layer of the catalog: tables are hash-partitioned
// by qualified relation name into a fixed number of shards, each owning its
// own table map, registration-order slice, lazy ValueSet cache and immutable
// value-index segments. Catalog-wide operations — FindValues, index builds,
// value-overlap pair generation, batch query execution — fan out one worker
// per shard and merge with deterministic post-passes, so every shard count
// produces byte-identical results (the metamorphic suite in shard_test.go
// pins this).
//
// Sharding also shrinks the write-side critical section of the copy-on-write
// protocol: Clone copies only the shard-pointer slice, and the first AddTable
// into a shard after a Clone copies just that shard's table map and order —
// a registration therefore touches only the shards its new tables hash into,
// while every other shard stays physically shared with the published
// generations (shard_test.go pins the pointer identity of untouched shards).

// catShard is one hash partition of the catalog: the tables whose qualified
// names hash here, in their registration order, plus this shard's lazy
// distinct-value cache and inverted value-index segment cache. The caches
// are shared across catalog clones (tables are immutable, so cached sets and
// segments stay correct in every generation containing their table); the
// table map and order are copy-on-write per shard.
type catShard struct {
	tables map[string]*Table
	order  []string
	values *valueCache
	index  *valueIndex
}

func newCatShard() *catShard {
	return &catShard{
		tables: make(map[string]*Table),
		values: &valueCache{sets: make(map[AttrRef]map[string]struct{})},
		index:  newValueIndex(),
	}
}

// NewCatalogSharded returns an empty catalog hash-partitioned into shards
// partitions. shards <= 0 selects the default, runtime.GOMAXPROCS(0). The
// shard count is fixed for the catalog's lifetime (clones inherit it); any
// count produces byte-identical results on every operation, so it only
// sizes the catalog's fan-outs (one worker per shard) and write locality.
func NewCatalogSharded(shards int) *Catalog {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	c := &Catalog{
		shards: make([]*catShard, shards),
		owned:  make([]bool, shards),
	}
	for i := range c.shards {
		c.shards[i] = newCatShard()
		c.owned[i] = true
	}
	return c
}

// ShardCount returns the number of hash partitions.
func (c *Catalog) ShardCount() int { return len(c.shards) }

// shardOf maps a qualified relation name to its shard index (FNV-1a).
func (c *Catalog) shardOf(qualified string) int {
	if len(c.shards) == 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(qualified); i++ {
		h ^= uint32(qualified[i])
		h *= 16777619
	}
	return int(h % uint32(len(c.shards)))
}

// ShardOf reports which shard the qualified relation name hashes into —
// for tests (e.g. asserting a registration spans several shards without
// duplicating the partitioner), stats and ops tooling.
func (c *Catalog) ShardOf(qualified string) int { return c.shardOf(qualified) }

// shardFor returns the shard owning the qualified name.
func (c *Catalog) shardFor(qualified string) *catShard { return c.shards[c.shardOf(qualified)] }

// lookup returns the table registered under the qualified name, or nil.
func (c *Catalog) lookup(qualified string) *Table { return c.shardFor(qualified).tables[qualified] }

// ownShard returns the shard at index si, first detaching it from any clones
// that share it: the table map and order are copied, the value-set and
// index caches stay shared. Writer-side only (see the Catalog concurrency
// contract) — this is what confines a registration's writes to the shards
// its new tables hash into.
func (c *Catalog) ownShard(si int) *catShard {
	sh := c.shards[si]
	if c.owned[si] {
		return sh
	}
	ns := &catShard{
		tables: make(map[string]*Table, len(sh.tables)+1),
		order:  append([]string(nil), sh.order...),
		values: sh.values,
		index:  sh.index,
	}
	for k, v := range sh.tables {
		ns.tables[k] = v
	}
	c.shards[si] = ns
	c.owned[si] = true
	return ns
}

// fanThreshold is the catalog size (tables) below which per-shard fan-outs
// run serially: on a handful of tables the per-shard work is microseconds
// and goroutine spawn would dominate, and FindValues sits on the per-keyword
// query hot path. Results are identical either way (indexed collection).
const fanThreshold = 16

// fanShards runs fn(si) for every shard index, one worker per shard
// (serially for small catalogs — see fanThreshold). Safe on read paths: it
// spawns plain worker goroutines and each shard index is claimed exactly
// once, so callers collect into per-shard slots race-free.
func (c *Catalog) fanShards(fn func(si int)) {
	workers := len(c.shards)
	if len(c.order) < fanThreshold {
		workers = 1
	}
	fanIndexed(len(c.shards), workers, fn)
}

// fanIndexed runs fn(0), …, fn(n-1) across at most workers goroutines.
// Every index runs exactly once at every worker count, so indexed collection
// into pre-sized slices is race-free and results are order-independent.
func fanIndexed(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// OverlappingAttrPairs returns the attribute pairs between two relations
// that share at least one distinct value — the Value Overlap Filter of
// Figure 7, used to prune alignment comparisons at registration time. The
// per-attribute overlap checks fan across at most one worker per shard (each
// resolves its value sets from the owning shard's cache) and merge into the
// map in declaration order, so the result is identical at any shard count.
func (c *Catalog) OverlappingAttrPairs(a, b *Relation) map[[2]AttrRef]bool {
	aq, bq := a.QualifiedName(), b.QualifiedName()
	overlaps := make([][]AttrRef, len(a.Attributes))
	fanIndexed(len(a.Attributes), len(c.shards), func(i int) {
		ra := AttrRef{Relation: aq, Attr: a.Attributes[i].Name}
		for _, bb := range b.Attributes {
			rb := AttrRef{Relation: bq, Attr: bb.Name}
			if c.ValueOverlap(ra, rb) > 0 {
				overlaps[i] = append(overlaps[i], rb)
			}
		}
	})
	out := make(map[[2]AttrRef]bool)
	for i, list := range overlaps {
		ra := AttrRef{Relation: aq, Attr: a.Attributes[i].Name}
		for _, rb := range list {
			out[[2]AttrRef{ra, rb}] = true
		}
	}
	return out
}
