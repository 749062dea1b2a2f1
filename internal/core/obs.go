package core

import (
	"time"

	"qint/internal/obs"
	"qint/internal/relstore"
)

// engineMetrics is one Q instance's metric set: every counter the engine
// maintains, registered up front in a single obs.Registry so the whole
// engine exports through one /metrics exposition. The legacy stat surfaces
// (Stats, PlanStats, CacheStats) remain as views over these counters — no
// number is accounted twice.
//
// All instruments are registered at New time; the hot path only ever does
// atomic adds on pre-resolved pointers. Per-stage counters accumulate
// nanoseconds internally and expose seconds (ScaledCounter 1e-9), so the
// record path never touches a float.
type engineMetrics struct {
	reg *obs.Registry

	// Query pipeline.
	queries     *obs.Counter                // qint_queries_total
	queryErrors *obs.Counter                // qint_query_errors_total
	queryDur    *obs.Histogram              // qint_query_duration_seconds (traced queries)
	stageTime   [obs.NumStages]*obs.Counter // qint_query_stage_seconds_total{stage=}, indexed like obs.Stages()
	stageOps    [obs.NumStages]*obs.Counter // qint_query_stage_ops_total{stage=}

	// Exact top-k Steiner search (steiner.Stats summed over calls).
	steinerPops        *obs.Counter // qint_steiner_pops_total
	steinerPruned      *obs.Counter // qint_steiner_pruned_total
	steinerBoundPruned *obs.Counter // qint_steiner_bound_pruned_total
	steinerTruncated   *obs.Counter // qint_steiner_truncated_total
	steinerLimited     *obs.Counter // qint_steiner_limited_total
	steinerReruns      *obs.Counter // qint_steiner_limit_reruns_total

	// Registration-time alignment work (the Stats view).
	baseMatcherCalls            *obs.Counter
	attrComparisons             *obs.Counter
	columnComparisonsUnfiltered *obs.Counter

	// Join planner (the PlanStats view).
	planBranchesPlanned *obs.Counter
	explainErrors       *obs.Counter // qint_plan_explain_errors_total

	refreshErrors *obs.Counter // qint_refresh_errors_total

	// Write path: time per stage of a write, summed over writes, and the
	// checkpoints that fold the WAL, which no one write owns.
	writeTime      [numWriteStages]*obs.Counter // qint_write_stage_seconds_total{stage=}
	checkpointTime *obs.Counter                 // qint_write_stage_seconds_total{stage="checkpoint"}

	// Recovery: time per stage of the restore that built this engine.
	recoveryTime [numRecoveryStages]*obs.Counter // qint_recovery_stage_seconds_total{stage=}

	// Top-k early termination.
	topkBranchesSkipped *obs.Counter

	// Branch executor totals over view materialisations (countTopK).
	execBranches *obs.Counter // qint_exec_branches_total
	execRows     *obs.Counter // qint_exec_rows_total

	// Serving-cache activity, labelled by cache. Every generation's qcache
	// instances write these directly (Instrument), so the totals span
	// publishes and CacheStats reads and /metrics report the same numbers.
	expHits, expMisses, expEvictions *obs.Counter
	expComputes, expCoalesced        *obs.Counter
	matHits, matMisses, matEvictions *obs.Counter
	matComputes, matCoalesced        *obs.Counter
}

// writeStage is one span of a write. A feedback runs page, learn and
// reprice (SetWeights only reprice), and every write ends in log, publish
// and refresh (commitLocked). The spans follow one another, so their sum
// is at most the write's wall time.
type writeStage int

const (
	writePage    writeStage = iota // feedback: the k-best page of competitor trees
	writeLearn                     // feedback: keyword-weight seeding and the MIRA update
	writeReprice                   // the new weights priced onto every learnable edge
	writeLog                       // the WAL append (durable engines)
	writePublish                   // the atomic swap to the new generation
	writeRefresh                   // every persistent view rematerialised
	numWriteStages
)

var writeStageNames = [numWriteStages]string{"page", "learn", "reprice", "log", "publish", "refresh"}

// span adds the time since t0 to stage st and returns the current time, the
// next span's start.
func (m *engineMetrics) span(st writeStage, t0 time.Time) time.Time {
	return addSince(m.writeTime[st], t0)
}

// recoveryStage is one span of Open or Load. The spans follow one another,
// so their sum is at most the restore's wall time; decode is the wall time
// of the two lanes restore runs at once, up to the WAL records decoded.
type recoveryStage int

const (
	recoverOpen    recoveryStage = iota // the data directory's manifest, snapshot and WAL read (Open), or the container (Load)
	recoverCatalog                      // the meta and catalog sections decoded
	recoverDecode                       // at once: the value-index segments installed; the keyword corpus indexed, the search graph and the WAL records decoded
	recoverReplay                       // the WAL records applied in epoch order and the edges repriced once, while the replayed tables are indexed
	recoverIndex                        // the replayed tables' segments awaited and installed, any missing ones built, and the state published
	recoverViews                        // the persistent views rematerialised
	numRecoveryStages
)

var recoveryStageNames = [numRecoveryStages]string{"open", "catalog", "decode", "replay", "index", "views"}

// recovered adds the time since t0 to recovery stage st and returns the
// current time, the next span's start.
func (m *engineMetrics) recovered(st recoveryStage, t0 time.Time) time.Time {
	return addSince(m.recoveryTime[st], t0)
}

// addSince adds the nanoseconds since t0 to c and returns the current time.
func addSince(c *obs.Counter, t0 time.Time) time.Time {
	now := time.Now()
	c.Add(int64(now.Sub(t0)))
	return now
}

// newEngineMetrics registers every engine instrument in a fresh registry.
func newEngineMetrics() *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{
		reg:         r,
		queries:     r.Counter("qint_queries_total", "Keyword queries materialised (persistent, ephemeral and traced paths)."),
		queryErrors: r.Counter("qint_query_errors_total", "Keyword queries that failed during materialisation."),
		queryDur:    r.Histogram("qint_query_duration_seconds", "Wall-clock latency of traced keyword queries."),

		steinerPops:        r.Counter("qint_steiner_pops_total", "Candidate trees taken off the exact top-k Steiner search's queue."),
		steinerPruned:      r.Counter("qint_steiner_pruned_total", "Candidate trees the exact search dropped instead of queueing because their state already held k trees."),
		steinerBoundPruned: r.Counter("qint_steiner_bound_pruned_total", "Candidate trees the exact search dropped, at push or at pop, because their cost plus a lower bound on completing them exceeded the search's limit: the k-th cheapest complete tree queued, or the cost a view refresh carried from its previous answer."),
		steinerTruncated:   r.Counter("qint_steiner_truncated_total", "Exact searches stopped at the pop limit, whose answer may be short."),
		steinerLimited:     r.Counter("qint_steiner_limited_total", "Exact searches given a finite limit from the start: view refreshes whose previous k trees all re-priced in the new generation, and feedback pages searched under their view's k-th cost."),
		steinerReruns:      r.Counter("qint_steiner_limit_reruns_total", "Exact searches under a finite limit that came back with fewer trees than their caller needs (a refresh its k, a feedback page its view's k) and ran again without one; a carried or page limit always has them under it, so this stays 0."),

		baseMatcherCalls:            r.Counter("qint_align_base_matcher_calls_total", "Relation-pair matcher invocations during source registration (BASEMATCHER calls of Algorithms 2-3)."),
		attrComparisons:             r.Counter("qint_align_attr_comparisons_total", "Pairwise attribute comparisons performed, honouring the value-overlap filter when enabled."),
		columnComparisonsUnfiltered: r.Counter("qint_align_attr_comparisons_unfiltered_total", "Attribute comparisons as if no filter were available (Figure 7 accounting)."),

		planBranchesPlanned: r.Counter("qint_plan_branches_planned_total", "Branch queries planned by the structural join planner."),
		explainErrors:       r.Counter("qint_plan_explain_errors_total", "Explain requests whose plan rendering failed."),

		refreshErrors: r.Counter("qint_refresh_errors_total", "View rematerialisations that failed after a write; the view keeps its previous materialisation."),

		topkBranchesSkipped: r.Counter("qint_topk_branches_skipped_total", "Branches never executed because k collected rows provably outranked them."),

		execBranches: r.Counter("qint_exec_branches_total", "Completed branch-query executions by view materialisations."),
		execRows:     r.Counter("qint_exec_rows_total", "Rows produced by branch executions of view materialisations (union input, before top-k truncation)."),
	}
	const writeHelp = "Time spent per write stage across writes: page, learn and reprice for feedback, log, publish and refresh for every write, and checkpoint for the WAL folds."
	for st, name := range writeStageNames {
		m.writeTime[st] = r.ScaledCounter("qint_write_stage_seconds_total", writeHelp, 1e-9, obs.Label{Name: "stage", Value: name})
	}
	m.checkpointTime = r.ScaledCounter("qint_write_stage_seconds_total", writeHelp, 1e-9, obs.Label{Name: "stage", Value: "checkpoint"})
	for st, name := range recoveryStageNames {
		m.recoveryTime[st] = r.ScaledCounter("qint_recovery_stage_seconds_total", "Time spent per stage of the restore that built this engine: open, catalog, decode (segments, graph and WAL records at once), replay, index and views.", 1e-9, obs.Label{Name: "stage", Value: name})
	}
	for i, st := range obs.Stages() {
		l := obs.Label{Name: "stage", Value: string(st)}
		m.stageTime[i] = r.ScaledCounter("qint_query_stage_seconds_total", "Time spent per query-pipeline stage across traced queries.", 1e-9, l)
		m.stageOps[i] = r.Counter("qint_query_stage_ops_total", "Marks per query-pipeline stage across traced queries.", l)
	}
	cacheCounter := func(name, help, cache string) *obs.Counter {
		return r.Counter(name, help, obs.Label{Name: "cache", Value: cache})
	}
	m.expHits = cacheCounter("qint_cache_hits_total", "Serving-cache lookup hits.", "expansion")
	m.matHits = cacheCounter("qint_cache_hits_total", "Serving-cache lookup hits.", "materialization")
	m.expMisses = cacheCounter("qint_cache_misses_total", "Serving-cache lookup misses.", "expansion")
	m.matMisses = cacheCounter("qint_cache_misses_total", "Serving-cache lookup misses.", "materialization")
	m.expEvictions = cacheCounter("qint_cache_evictions_total", "Serving-cache entries evicted for capacity.", "expansion")
	m.matEvictions = cacheCounter("qint_cache_evictions_total", "Serving-cache entries evicted for capacity.", "materialization")
	m.expComputes = cacheCounter("qint_cache_computes_total", "Cache-miss computations that actually executed.", "expansion")
	m.matComputes = cacheCounter("qint_cache_computes_total", "Cache-miss computations that actually executed.", "materialization")
	m.expCoalesced = cacheCounter("qint_cache_coalesced_total", "Cache misses served by piggybacking on an in-flight computation.", "expansion")
	m.matCoalesced = cacheCounter("qint_cache_coalesced_total", "Cache misses served by piggybacking on an in-flight computation.", "materialization")
	return m
}

// instrumentEngine attaches the metric set to the engine's subsystems and
// registers the callback gauges that read live state. Called from New
// before the Q is shared, so every swap happens writer-side.
func (q *Q) instrumentEngine(m *engineMetrics) {
	q.metrics = m
	q.Stats = Stats{
		baseMatcherCalls:            m.baseMatcherCalls,
		attrComparisons:             m.attrComparisons,
		columnComparisonsUnfiltered: m.columnComparisonsUnfiltered,
	}
	m.reg.GaugeFunc("qint_epoch", "Current published state generation.", func() float64 {
		return float64(q.Epoch())
	})
	m.reg.GaugeFunc("qint_epoch_age_seconds", "Age of the current published state generation.", func() float64 {
		at := q.state().publishedAt
		if at.IsZero() {
			return 0
		}
		return time.Since(at).Seconds()
	})
	m.reg.GaugeFunc("qint_views", "Persistent views in the maintenance set.", func() float64 {
		q.viewsMu.Lock()
		n := len(q.views)
		q.viewsMu.Unlock()
		return float64(n)
	})
}

// Metrics returns the engine's metric registry — the server mounts its
// /metrics exposition over it and layers its own serving families on top.
func (q *Q) Metrics() *obs.Registry { return q.metrics.reg }

// observeTrace finishes a traced query and folds its breakdown into the
// registry: wall time into the duration summary, each marked stage's time
// and marks into the stage families. No-op on a nil trace, so the untraced
// path pays one nil check and no clock read.
func (q *Q) observeTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	m := q.metrics
	m.queryDur.Record(tr.Wall())
	b := tr.Breakdown()
	for i, n := range b.Marks {
		if n > 0 {
			m.stageTime[i].Add(int64(b.Dur[i]))
			m.stageOps[i].Add(int64(n))
		}
	}
}

// countTopK folds one top-k pruned union's counters into the registry.
func (q *Q) countTopK(s relstore.TopKUnionStats) {
	m := q.metrics
	m.topkBranchesSkipped.Add(int64(s.BranchesSkipped))
	m.execBranches.Add(int64(s.BranchesExecuted))
	m.execRows.Add(s.RowsEmitted)
}
