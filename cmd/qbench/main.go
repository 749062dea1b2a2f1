// Command qbench regenerates every table and figure of the paper's
// evaluation (§5) and prints them in the same rows/series the paper
// reports. Use -exp to run a single experiment.
//
//	qbench            # run everything
//	qbench -exp fig7  # one of: table1 fig6 fig7 fig8 fig10 fig11 fig12 table2 ablation propagation parallel snapshot shard cache load
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/eval"
	"qint/internal/matcher"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, fig6, fig7, fig8, fig10, fig11, fig12, table2, ablation, propagation, parallel, snapshot, shard, cache, load")
	flag.Parse()

	runners := []struct {
		name string
		fn   func() error
	}{
		{"table1", table1},
		{"fig6", fig6},
		{"fig7", fig7},
		{"fig8", fig8},
		{"fig10", fig10},
		{"fig11", fig11},
		{"fig12", fig12},
		{"table2", table2},
		{"ablation", ablation},
		{"propagation", propagation},
		{"parallel", parallel},
		{"snapshot", snapshot},
		{"shard", shard},
		{"cache", cache},
		{"load", load},
	}
	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		if err := r.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "qbench: %s: %v\n", r.name, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "qbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("-", len(title)))
}

func table1() error {
	rows, err := eval.RunTable1()
	if err != nil {
		return err
	}
	header("Table 1: matcher quality on InterPro-GO (top-Y edges per attribute vs 8 gold edges)")
	fmt.Printf("%-3s %-20s %10s %10s %10s\n", "Y", "System", "Precision", "Recall", "F-measure")
	for _, r := range rows {
		fmt.Printf("%-3d %-20s %10.2f %10.2f %10.2f\n", r.Y, r.System, r.Precision, r.Recall, r.F1)
	}
	return nil
}

func fig6() error {
	rows, err := eval.RunFig6()
	if err != nil {
		return err
	}
	header("Figure 6: mean time to align one new source (metadata matcher as BASEMATCHER, 40 introductions)")
	for _, r := range rows {
		fmt.Printf("%-22s %12v\n", r.Strategy, r.MeanTime)
	}
	return nil
}

func fig7() error {
	rows, err := eval.RunFig7()
	if err != nil {
		return err
	}
	header("Figure 7: mean pairwise attribute comparisons per source introduction")
	fmt.Printf("%-22s %22s %22s\n", "Strategy", "No Additional Filter", "Value Overlap Filter")
	for _, r := range rows {
		fmt.Printf("%-22s %22.1f %22.1f\n", r.Strategy, r.NoFilter, r.WithFilter)
	}
	return nil
}

func fig8() error {
	rows, err := eval.RunFig8()
	if err != nil {
		return err
	}
	header("Figure 8: pairwise column comparisons vs search-graph size (18 -> 500 sources)")
	fmt.Printf("%-10s %14s %18s %20s\n", "Sources", "EXHAUSTIVE", "VIEWBASEDALIGNER", "PREFERENTIALALIGNER")
	for _, r := range rows {
		fmt.Printf("%-10d %14.1f %18.1f %20.1f\n", r.Sources, r.Exhaustive, r.ViewBased, r.Preferential)
	}
	return nil
}

func printCurves(curves []eval.Curve) {
	for _, c := range curves {
		fmt.Printf("%s:\n", c.Name)
		fmt.Printf("  %10s %10s\n", "Recall", "Precision")
		for _, p := range c.Points {
			fmt.Printf("  %10.2f %10.2f\n", p.Recall, p.Precision)
		}
	}
}

func fig10() error {
	curves, err := eval.RunFig10()
	if err != nil {
		return err
	}
	header("Figure 10: precision-recall for META, MAD, and Q (combined + 10x4 feedback)")
	printCurves(curves)
	return nil
}

func fig11() error {
	curves, err := eval.RunFig11()
	if err != nil {
		return err
	}
	header("Figure 11: precision-recall for Q at increasing feedback levels")
	printCurves(curves)
	return nil
}

func fig12() error {
	rows, err := eval.RunFig12()
	if err != nil {
		return err
	}
	header("Figure 12: avg gold vs non-gold association edge cost per feedback step")
	fmt.Printf("%-6s %14s %16s\n", "Step", "Gold avg cost", "Non-gold avg cost")
	for _, r := range rows {
		fmt.Printf("%-6d %14.3f %16.3f\n", r.Step, r.GoldAvg, r.NonGoldAvg)
	}
	return nil
}

func ablation() error {
	rows, err := eval.RunAblationBinning()
	if err != nil {
		return err
	}
	header("Ablation: binned vs raw matcher-confidence features (10x4 feedback)")
	fmt.Printf("%-22s %12s %14s %12s\n", "Mode", "Gold avg", "Non-gold avg", "P@87.5")
	for _, r := range rows {
		fmt.Printf("%-22s %12.3f %14.3f %12.1f\n", r.Mode, r.GoldAvg, r.NonGoldAvg, r.PrecisionAtHighRecall)
	}
	return nil
}

func propagation() error {
	rows, err := eval.RunAblationPropagation()
	if err != nil {
		return err
	}
	header("Ablation: MAD vs LP-ZGL label propagation (Table 1 protocol)")
	fmt.Printf("%-10s %-3s %10s %10s %10s\n", "Algorithm", "Y", "Precision", "Recall", "F-measure")
	for _, r := range rows {
		fmt.Printf("%-10s %-3d %10.2f %10.2f %10.2f\n", r.Algorithm, r.Y, r.Precision, r.Recall, r.F1)
	}
	return nil
}

// parallel compares serial and pooled view materialisation on the GBCO
// trial workload.
func parallel() error {
	corpus := datasets.GBCO()
	run := func(parallelism int) (time.Duration, error) {
		opts := core.DefaultOptions()
		opts.Parallelism = parallelism
		q := core.New(opts)
		q.AddMatcher(meta.New())
		if err := q.AddTables(corpus.Tables...); err != nil {
			return 0, err
		}
		// Warm one query so lazily built indexes don't bias the first trial.
		if v, err := q.Query(corpus.Trials[0].Keywords); err != nil {
			return 0, err
		} else {
			q.DropView(v)
		}
		start := time.Now()
		for _, trial := range corpus.Trials {
			v, err := q.Query(trial.Keywords)
			if err != nil {
				return 0, err
			}
			q.DropView(v)
		}
		return time.Since(start) / time.Duration(len(corpus.Trials)), nil
	}
	serial, err := run(1)
	if err != nil {
		return err
	}
	pooled, err := run(0) // 0 = GOMAXPROCS default
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Parallel execution: mean GBCO keyword-query latency (%d trials, GOMAXPROCS=%d)",
		len(corpus.Trials), runtime.GOMAXPROCS(0)))
	fmt.Printf("%-22s %12s\n", "Mode", "Mean/query")
	fmt.Printf("%-22s %12v\n", "serial (workers=1)", serial)
	fmt.Printf("%-22s %12v\n", "parallel (pool)", pooled)
	if pooled > 0 {
		fmt.Printf("%-22s %12.2fx\n", "speedup", float64(serial)/float64(pooled))
	}
	return nil
}

// shard compares catalog-wide operations across catalog shard counts. Every
// row's answers are verified byte-identical to the single-shard catalog's
// before timing.
func shard() error {
	rows, err := eval.RunShard()
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Sharded catalog: catalog-wide operations vs shard count (120 tables, GOMAXPROCS=%d)",
		runtime.GOMAXPROCS(0)))
	fmt.Printf("%-8s %-8s %12s %12s %14s %12s\n",
		"Shards", "Tables", "IndexBuild", "Find/kw", "Register(16t)", "ExecBatch")
	for _, r := range rows {
		fmt.Printf("%-8d %-8d %12v %12v %14v %12v\n",
			r.Shards, r.Tables, r.BuildTime, r.FindMean, r.RegTime, r.ExecTime)
	}
	return nil
}

// cache measures the serving-layer query cache on Zipfian repeated-query
// traffic across skews. Every row's cached answers are verified
// byte-identical to the cold engine before anything is timed.
func cache() error {
	rows, err := eval.RunCache()
	if err != nil {
		return err
	}
	header("Query cache: mean latency on a Zipfian repeated-query stream, cold vs epoch-keyed cache")
	fmt.Printf("%-6s %-8s %-9s %9s %12s %12s %10s\n",
		"Skew", "Queries", "Distinct", "Hit rate", "Cold/query", "Warm/query", "Speedup")
	for _, r := range rows {
		fmt.Printf("%-6.1f %-8d %-9d %8.1f%% %12v %12v %9.1fx\n",
			r.Skew, r.Queries, r.Distinct, 100*r.HitRate, r.ColdMean, r.WarmMean, r.Speedup)
	}
	return nil
}

// load drives the admission-controlled serving path open-loop at nominal
// and overload rates against an in-process server — the standalone
// counterpart of cmd/qload against a live qserver. The overload row's shed
// count is the admission layer doing its job; a 5xx fails the run.
func load() error {
	rows, err := eval.RunLoad()
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Serving-path load: open-loop Zipfian GBCO stream vs admission control (GOMAXPROCS=%d)",
		runtime.GOMAXPROCS(0)))
	fmt.Printf("%-10s %10s %12s %8s %8s %8s %10s %10s %10s %7s\n",
		"Scenario", "Target", "Achieved", "Served", "Shed", "Errors", "p50", "p99", "p999", "Epochs")
	for _, r := range rows {
		fmt.Printf("%-10s %10.0f %12.1f %8d %8d %8d %10v %10v %10v %7d\n",
			r.Scenario, r.TargetQPS, r.AchievedQPS, r.Served, r.Shed, r.Errors,
			r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond),
			r.P999.Round(time.Microsecond), r.Epochs)
	}
	return nil
}

func table2() error {
	rows, err := eval.RunTable2()
	if err != nil {
		return err
	}
	header("Table 2: feedback steps to first reach precision 1 at each recall level")
	fmt.Printf("%-14s %6s\n", "Recall level", "Steps")
	for _, r := range rows {
		steps := fmt.Sprint(r.Steps)
		if r.Steps == 0 {
			steps = "-"
		}
		fmt.Printf("%-14.1f %6s\n", r.RecallLevel, steps)
	}
	return nil
}

// slowMatcher stands in for the expensive matchers real registrations run
// (content indexes, large sources, remote services): a per-Match pause
// makes the cost of blocking behind a registration visible even on one
// core, where pure CPU work cannot overlap anyway.
type slowMatcher struct{ inner matcher.Matcher }

func (m slowMatcher) Name() string { return m.inner.Name() }
func (m slowMatcher) Match(cat *relstore.Catalog, a, b *relstore.Relation) []matcher.Alignment {
	time.Sleep(5 * time.Millisecond)
	return m.inner.Match(cat, a, b)
}

// snapshot measures the copy-on-write search-graph tentpole: the latency of
// a keyword query issued at the moment a source registration starts, with
// the query blocked behind the registration (the old big-lock design,
// simulated with an RWMutex) versus lock-free over the published snapshot.
// Each trial performs exactly one registration in both modes, so the two
// runs traverse identical state; only the query is timed.
func snapshot() error {
	corpus := datasets.GBCO()
	run := func(locked bool) (time.Duration, error) {
		q := core.New(core.DefaultOptions())
		q.AddMatcher(slowMatcher{inner: meta.New()})
		if err := q.AddTables(corpus.Tables...); err != nil {
			return 0, err
		}
		if _, err := q.Query(corpus.Trials[0].Keywords); err != nil {
			return 0, err
		}
		var mu sync.RWMutex
		var total time.Duration
		for i, trial := range corpus.Trials {
			rel := &relstore.Relation{Source: fmt.Sprintf("contend%d", i), Name: "data",
				Attributes: []relstore.Attribute{{Name: "pubmed_id"}, {Name: "label"}}}
			tb, err := relstore.NewTable(rel, [][]string{{"PUB00001", "x"}})
			if err != nil {
				return 0, err
			}
			started := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				if locked {
					mu.Lock()
					defer mu.Unlock()
				}
				close(started)
				_, err := q.RegisterSource([]*relstore.Table{tb}, core.Preferential)
				done <- err
			}()
			<-started
			begin := time.Now()
			if locked {
				mu.RLock()
			}
			v, err := q.Query(trial.Keywords)
			if locked {
				mu.RUnlock()
			}
			total += time.Since(begin)
			if err != nil {
				return 0, err
			}
			q.DropView(v)
			if err := <-done; err != nil {
				return 0, err
			}
		}
		return total / time.Duration(len(corpus.Trials)), nil
	}
	lockedMean, err := run(true)
	if err != nil {
		return err
	}
	snapMean, err := run(false)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Snapshot contention: mean latency of a query issued as a registration starts (%d trials)",
		len(corpus.Trials)))
	fmt.Printf("%-32s %12s\n", "Mode", "Mean/query")
	fmt.Printf("%-32s %12v\n", "big lock (query waits)", lockedMean)
	fmt.Printf("%-32s %12v\n", "snapshot (lock-free read)", snapMean)
	if snapMean > 0 {
		fmt.Printf("%-32s %12.2fx\n", "speedup", float64(lockedMean)/float64(snapMean))
	}
	return nil
}
