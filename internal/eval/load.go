package eval

import (
	"fmt"
	"net/http/httptest"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/loadgen"
	"qint/internal/matcher/meta"
	"qint/internal/server"
)

// LoadRow is one scenario of the serving-path load experiment: the GBCO
// trial workload driven open-loop at a target QPS against an in-process
// qserver with explicit admission limits.
type LoadRow struct {
	Scenario    string        // nominal | overload
	TargetQPS   float64       // offered arrival rate
	AchievedQPS float64       // completed exchanges / wall clock
	Served      int64         // 2xx answers
	Shed        int64         // 429 + 503 refusals
	Errors      int64         // 4xx (non-shed) + 5xx + transport
	P50         time.Duration // served latency from scheduled send time
	P99         time.Duration
	P999        time.Duration
	Epochs      int // distinct X-Q-Epoch generations observed
}

// RunLoad measures the admission-controlled serving path (the qbench -exp
// load experiment; cmd/qload is the standalone driver for a live server).
// Two scenarios run against one in-process server over the GBCO corpus
// with a deliberately small in-flight query limit:
//
//   - nominal: offered load the engine can absorb — essentially
//     everything is served and the tail stays flat (warm cache traffic).
//   - overload: offered load far beyond the limit — the EXCESS is shed
//     with fast 429s while served-request p99 stays bounded, which is the
//     admission-control contract (shed early, never queue unboundedly).
//
// A run with 5xx or transport errors fails: the serving path must degrade
// by refusing work, never by breaking.
func RunLoad() ([]LoadRow, error) {
	corpus := datasets.GBCO()
	queries := make([]string, len(corpus.Trials))
	for i, tr := range corpus.Trials {
		queries[i] = tr.Keywords
	}

	// The epoch-keyed cache would serve repeats in microseconds and hide
	// the admission layer entirely (capacity >> any offered rate); with it
	// disabled every query pays the full pipeline — the diverse-traffic
	// worst case admission control exists for.
	opts := core.DefaultOptions()
	opts.ExpansionCacheEntries = -1
	opts.MaterializationCacheEntries = -1
	q := core.New(opts)
	q.AddMatcher(meta.New())
	if err := q.AddTables(corpus.Tables...); err != nil {
		return nil, fmt.Errorf("eval: load: %w", err)
	}
	srv := server.NewWith(q, server.Config{MaxInFlightQueries: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Warm lazily built value-index segments so neither scenario pays
	// first-touch build cost.
	warm, err := loadgen.Run(loadgen.Config{
		BaseURL: ts.URL, QPS: 50, Duration: 500 * time.Millisecond,
		Workers: 2, Queries: queries, Seed: 11,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: load: warmup: %w", err)
	}
	if warm.Err5xx > 0 || warm.NetErrors > 0 {
		return nil, fmt.Errorf("eval: load: warmup saw %d x 5xx, %d transport errors",
			warm.Err5xx, warm.NetErrors)
	}

	scenarios := []struct {
		name    string
		qps     float64
		workers int
	}{
		{"nominal", 100, 8},
		{"overload", 2000, 64},
	}
	var rows []LoadRow
	for _, sc := range scenarios {
		rep, err := loadgen.Run(loadgen.Config{
			BaseURL:  ts.URL,
			QPS:      sc.qps,
			Duration: 2 * time.Second,
			Workers:  sc.workers,
			Queries:  queries,
			Skew:     1.2,
			Seed:     42,
		})
		if err != nil {
			return nil, fmt.Errorf("eval: load: %s: %w", sc.name, err)
		}
		if rep.Err5xx > 0 || rep.NetErrors > 0 {
			return nil, fmt.Errorf("eval: load: %s: %d x 5xx, %d transport errors",
				sc.name, rep.Err5xx, rep.NetErrors)
		}
		rows = append(rows, LoadRow{
			Scenario:    sc.name,
			TargetQPS:   rep.TargetQPS,
			AchievedQPS: rep.AchievedQPS,
			Served:      rep.Served,
			Shed:        rep.Shed429 + rep.Shed503,
			Errors:      rep.Err4xx + rep.Err5xx + rep.NetErrors,
			P50:         rep.P50,
			P99:         rep.P99,
			P999:        rep.P999,
			Epochs:      rep.EpochsSeen,
		})
	}
	return rows, nil
}
