package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/meta"
)

// CacheRow is one skew level of the query-cache experiment: a Zipfian
// stream of keyword queries over the GBCO trial vocabulary, served cold
// (cache disabled: every query pays the full pipeline) and warm (the
// epoch-keyed cache on, starting empty — so the stream's first occurrence
// of each query computes and the repeats hit).
type CacheRow struct {
	Skew     float64       // Zipf exponent s (higher = hotter hot set)
	Queries  int           // stream length
	Distinct int           // distinct queries in the stream
	HitRate  float64       // materialisation-cache hit rate over the stream
	ColdMean time.Duration // mean per-query latency, cache disabled
	WarmMean time.Duration // mean per-query latency, cache enabled
	Speedup  float64
}

// RunCache measures the serving-layer query cache across traffic skews
// (the qbench -exp cache experiment). Before anything is timed, every
// distinct query's cached answer is verified byte-identical to the cold
// engine's at the same epoch, so the comparison can never drift from the
// equivalence contract.
func RunCache() ([]CacheRow, error) {
	corpus := datasets.GBCO()
	queries := make([]string, len(corpus.Trials))
	for i, tr := range corpus.Trials {
		queries[i] = tr.Keywords
	}

	build := func(disable bool) (*core.Q, error) {
		opts := core.DefaultOptions()
		if disable {
			opts.ExpansionCacheEntries = -1
			opts.MaterializationCacheEntries = -1
		}
		q := core.New(opts)
		q.AddMatcher(meta.New())
		if err := q.AddTables(corpus.Tables...); err != nil {
			return nil, fmt.Errorf("eval: cache: %w", err)
		}
		return q, nil
	}
	cold, err := build(true)
	if err != nil {
		return nil, err
	}

	const streamLen = 240
	var rows []CacheRow
	for _, skew := range []float64{1.1, 1.5, 2.0} {
		// A fresh cached engine per skew: hit rates start from an empty
		// cache, so the row reflects the skew rather than earlier rows.
		warm, err := build(false)
		if err != nil {
			return nil, err
		}

		rng := rand.New(rand.NewSource(int64(skew * 100)))
		z := rand.NewZipf(rng, skew, 1, uint64(len(queries)-1))
		stream := make([]string, streamLen)
		distinct := make(map[string]bool)
		for i := range stream {
			stream[i] = queries[z.Uint64()]
			distinct[stream[i]] = true
		}

		// Correctness gate before timing anything: at the same epoch, the
		// cached engine's answer (computed once, then served from cache) must
		// be byte-identical to the cold engine's.
		if ce, ke := warm.Epoch(), cold.Epoch(); ce != ke {
			return nil, fmt.Errorf("eval: cache: engines at different epochs (%d vs %d)", ce, ke)
		}
		for q := range distinct {
			for pass := 0; pass < 2; pass++ { // compute, then hit
				vw, err := warm.Query(q)
				if err != nil {
					return nil, fmt.Errorf("eval: cache: warm %q: %w", q, err)
				}
				vc, err := cold.Query(q)
				if err != nil {
					return nil, fmt.Errorf("eval: cache: cold %q: %w", q, err)
				}
				if fingerprintAnswers(vw) != fingerprintAnswers(vc) {
					return nil, fmt.Errorf("eval: cache: divergence on %q (pass %d) at epoch %d", q, pass, warm.Epoch())
				}
				warm.DropView(vw)
				cold.DropView(vc)
			}
		}

		// Rebuild the warm engine so the timed stream starts on an empty
		// cache and the hit rate is the stream's own.
		warm, err = build(false)
		if err != nil {
			return nil, err
		}
		before := warm.CacheStats().Materialization

		run := func(q *core.Q) (time.Duration, error) {
			start := time.Now()
			for _, query := range stream {
				v, err := q.Query(query)
				if err != nil {
					return 0, fmt.Errorf("eval: cache: %w", err)
				}
				q.DropView(v)
			}
			return time.Since(start) / time.Duration(len(stream)), nil
		}
		coldMean, err := run(cold)
		if err != nil {
			return nil, err
		}
		warmMean, err := run(warm)
		if err != nil {
			return nil, err
		}

		after := warm.CacheStats().Materialization
		lookups := (after.Hits - before.Hits) + (after.Misses - before.Misses)
		hitRate := 0.0
		if lookups > 0 {
			hitRate = float64(after.Hits-before.Hits) / float64(lookups)
		}
		speedup := 0.0
		if warmMean > 0 {
			speedup = float64(coldMean) / float64(warmMean)
		}
		rows = append(rows, CacheRow{
			Skew:     skew,
			Queries:  streamLen,
			Distinct: len(distinct),
			HitRate:  hitRate,
			ColdMean: coldMean,
			WarmMean: warmMean,
			Speedup:  speedup,
		})
	}
	return rows, nil
}

// fingerprintAnswers flattens everything a view exposes into one
// comparable string (the eval-side counterpart of the test suites'
// fingerprintView).
func fingerprintAnswers(v *core.View) string {
	m := v.Current()
	var b strings.Builder
	fmt.Fprintf(&b, "keywords=%v k=%d alpha=%.12f\n", v.Keywords, v.K, m.Alpha)
	for _, t := range m.Trees {
		fmt.Fprintf(&b, "tree %s cost=%.12f\n", t.Key(), t.Cost)
	}
	for _, cq := range m.Queries {
		fmt.Fprintf(&b, "query sig=%s\n", cq.Signature())
	}
	if m.Result != nil {
		fmt.Fprintf(&b, "cols=%s\n", strings.Join(m.Result.Columns, "|"))
		for _, r := range m.Result.Rows {
			fmt.Fprintf(&b, "row %q cost=%.12f prov=%s\n", r.Values, r.Cost, r.Provenance)
		}
	}
	return b.String()
}
