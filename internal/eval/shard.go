package eval

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"qint/internal/datasets"
	"qint/internal/relstore"
)

// ShardRow is one shard count of the catalog-sharding experiment: the time
// to build the value index (one worker per shard), the mean FindValues
// latency over the synthetic keyword workload, the catalog-write side of a
// 16-table registration (clone + add + incremental index), and one batch
// execution of a per-table selection workload.
type ShardRow struct {
	Shards    int
	Tables    int
	BuildTime time.Duration
	FindMean  time.Duration
	RegTime   time.Duration
	ExecTime  time.Duration
}

// RunShard measures catalog-wide operations across shard counts on the
// 120-table synthetic value catalog (the qbench -exp shard experiment).
// Every shard count's FindValues answers are verified byte-identical to the
// single-shard catalog's before anything is timed, so the comparison can
// never drift from the equivalence contract.
func RunShard() ([]ShardRow, error) {
	const nTables, rowsPer = 120, 200
	tables, keywords := datasets.SyntheticValueCorpus(nTables, rowsPer, 42)

	ref := relstore.NewCatalogSharded(1)
	for _, t := range tables {
		if err := ref.AddTable(t); err != nil {
			return nil, fmt.Errorf("eval: shard: %w", err)
		}
	}
	want := make([][]relstore.ValueHit, len(keywords))
	for i, kw := range keywords {
		want[i] = ref.FindValues(kw)
	}

	queries := make([]*relstore.ConjunctiveQuery, 0, nTables)
	for _, qn := range ref.RelationNames() {
		queries = append(queries, &relstore.ConjunctiveQuery{
			Atoms:   []relstore.Atom{{Relation: qn, Alias: "t0"}},
			Selects: []relstore.SelCond{{Alias: "t0", Attr: "description", Op: relstore.OpContains, Value: "pro"}},
			Project: []relstore.ProjCol{{Alias: "t0", Attr: "acc", As: "acc"}},
		})
	}

	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); !slices.Contains(counts, g) {
		counts = append(counts, g)
	}

	var rows []ShardRow
	for _, shards := range counts {
		cat := relstore.NewCatalogSharded(shards)
		cat.SetParallelism(runtime.GOMAXPROCS(0))
		for _, t := range tables {
			if err := cat.AddTable(t); err != nil {
				return nil, fmt.Errorf("eval: shard: %w", err)
			}
		}
		buildStart := time.Now()
		cat.BuildValueIndex(runtime.GOMAXPROCS(0))
		build := time.Since(buildStart)

		// Correctness gate before timing anything.
		for i, kw := range keywords {
			if !slices.Equal(cat.FindValues(kw), want[i]) {
				return nil, fmt.Errorf("eval: shard: divergence at shards=%d on %q", shards, kw)
			}
		}

		findStart := time.Now()
		for _, kw := range keywords {
			cat.FindValues(kw)
		}
		findMean := time.Since(findStart) / time.Duration(len(keywords))

		newTables, err := shardRegistrationSource(rowsPer)
		if err != nil {
			return nil, err
		}
		regStart := time.Now()
		clone := cat.Clone()
		for _, t := range newTables {
			if err := clone.AddTable(t); err != nil {
				return nil, fmt.Errorf("eval: shard: %w", err)
			}
		}
		clone.BuildValueIndex(runtime.GOMAXPROCS(0))
		reg := time.Since(regStart)

		execStart := time.Now()
		if _, err := relstore.ExecuteBatch(cat, queries, runtime.GOMAXPROCS(0)); err != nil {
			return nil, fmt.Errorf("eval: shard: %w", err)
		}
		exec := time.Since(execStart)

		rows = append(rows, ShardRow{
			Shards:    shards,
			Tables:    nTables,
			BuildTime: build,
			FindMean:  findMean,
			RegTime:   reg,
			ExecTime:  exec,
		})
	}
	return rows, nil
}

// shardRegistrationSource builds the fresh 16-table source each shard
// count's registration measurement adds.
func shardRegistrationSource(rowsPer int) ([]*relstore.Table, error) {
	out := make([]*relstore.Table, 16)
	for ti := range out {
		rel := &relstore.Relation{Source: "regsrc", Name: fmt.Sprintf("data%d", ti),
			Attributes: []relstore.Attribute{{Name: "acc"}, {Name: "name"}, {Name: "description"}}}
		rows := make([][]string, rowsPer)
		for ri := range rows {
			rows[ri] = []string{
				fmt.Sprintf("REG%d:%07d", ti, ri*31%997),
				fmt.Sprintf("pro mem %d", ri%13),
				fmt.Sprintf("ter gly fer %d bra %d", ri%7, ri%29),
			}
		}
		t, err := relstore.NewTable(rel, rows)
		if err != nil {
			return nil, fmt.Errorf("eval: shard: %w", err)
		}
		out[ti] = t
	}
	return out, nil
}
