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
	queries     *obs.Counter               // qint_queries_total
	queryErrors *obs.Counter               // qint_query_errors_total
	queryDur    *obs.Histogram             // qint_query_duration_seconds (traced queries)
	stageTime   map[obs.Stage]*obs.Counter // qint_query_stage_seconds_total{stage=}
	stageOps    map[obs.Stage]*obs.Counter // qint_query_stage_ops_total{stage=}

	// Exact top-k Steiner search (steiner.Stats summed over calls), and
	// searches answered by the approximation because the keyword set was
	// beyond steiner.MaxExactTerminals.
	steinerPops         *obs.Counter // qint_steiner_pops_total
	steinerPruned       *obs.Counter // qint_steiner_pruned_total
	steinerBoundPruned  *obs.Counter // qint_steiner_bound_pruned_total
	steinerTruncated    *obs.Counter // qint_steiner_truncated_total
	steinerApproxRouted *obs.Counter // qint_steiner_approx_routed_total

	// Registration-time alignment work (the Stats view).
	baseMatcherCalls            *obs.Counter
	attrComparisons             *obs.Counter
	columnComparisonsUnfiltered *obs.Counter

	// Cost-based join planner (the PlanStats view).
	planBranchesPlanned   *obs.Counter
	planBranchesReordered *obs.Counter
	planSharedSubtrees    *obs.Counter
	planSubplansComputed  *obs.Counter
	planCSEHits           *obs.Counter
	explainErrors         *obs.Counter // qint_plan_explain_errors_total

	// Top-k early termination.
	topkBranchesSkipped *obs.Counter

	// Branch executor totals, attached to the catalog (Clone propagates).
	exec relstore.ExecCounters

	// Serving-cache activity, labelled by cache. The qcache instances and
	// singleflight groups write these directly (Instrument), so CacheStats
	// reads and /metrics report the same numbers.
	expHits, expMisses, expEvictions *obs.Counter
	expComputes, expCoalesced        *obs.Counter
	matHits, matMisses, matEvictions *obs.Counter
	matComputes, matCoalesced        *obs.Counter
}

// newEngineMetrics registers every engine instrument in a fresh registry.
func newEngineMetrics() *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{
		reg:         r,
		queries:     r.Counter("qint_queries_total", "Keyword queries materialised (persistent, ephemeral and traced paths)."),
		queryErrors: r.Counter("qint_query_errors_total", "Keyword queries that failed during materialisation."),
		queryDur:    r.Histogram("qint_query_duration_seconds", "Wall-clock latency of traced keyword queries."),
		stageTime:   make(map[obs.Stage]*obs.Counter),
		stageOps:    make(map[obs.Stage]*obs.Counter),

		steinerPops:         r.Counter("qint_steiner_pops_total", "Candidate trees taken off the exact top-k Steiner search's queue."),
		steinerPruned:       r.Counter("qint_steiner_pruned_total", "Candidate trees the exact search dropped instead of queueing because their state already held k trees."),
		steinerBoundPruned:  r.Counter("qint_steiner_bound_pruned_total", "Candidate trees the exact search dropped, at push or at pop, because their cost plus a lower bound on completing them exceeded the k-th cheapest complete tree queued."),
		steinerTruncated:    r.Counter("qint_steiner_truncated_total", "Exact searches stopped at the pop limit, whose answer may be short."),
		steinerApproxRouted: r.Counter("qint_steiner_approx_routed_total", "Searches routed to the approximation because they had more terminals than the exact search accepts."),

		baseMatcherCalls:            r.Counter("qint_align_base_matcher_calls_total", "Relation-pair matcher invocations during source registration (BASEMATCHER calls of Algorithms 2-3)."),
		attrComparisons:             r.Counter("qint_align_attr_comparisons_total", "Pairwise attribute comparisons performed, honouring the value-overlap filter when enabled."),
		columnComparisonsUnfiltered: r.Counter("qint_align_attr_comparisons_unfiltered_total", "Attribute comparisons as if no filter were available (Figure 7 accounting)."),

		planBranchesPlanned:   r.Counter("qint_plan_branches_planned_total", "Branch queries planned by the cost-based join planner."),
		planBranchesReordered: r.Counter("qint_plan_branches_reordered_total", "Planned branches whose join order differs from the naive spec order."),
		planSharedSubtrees:    r.Counter("qint_plan_shared_subtrees_total", "Distinct join prefixes shared by at least two branches of one batch."),
		planSubplansComputed:  r.Counter("qint_plan_subplans_total", "Shared join prefixes actually materialised as subplans."),
		planCSEHits:           r.Counter("qint_plan_cse_hits_total", "Branch executions served from an already-computed shared subplan."),
		explainErrors:         r.Counter("qint_plan_explain_errors_total", "Explain requests whose plan rendering failed."),

		topkBranchesSkipped: r.Counter("qint_topk_branches_skipped_total", "Branches never executed because k collected rows provably outranked them."),
	}
	for _, st := range obs.Stages() {
		l := obs.Label{Name: "stage", Value: string(st)}
		m.stageTime[st] = r.ScaledCounter("qint_query_stage_seconds_total", "Time spent per query-pipeline stage across traced queries.", 1e-9, l)
		m.stageOps[st] = r.Counter("qint_query_stage_ops_total", "Recorded spans per query-pipeline stage across traced queries.", l)
	}
	m.exec = relstore.ExecCounters{
		Branches: r.Counter("qint_exec_branches_total", "Completed branch-query executions across every execution path."),
		Rows:     r.Counter("qint_exec_rows_total", "Rows produced by branch executions (union input, before top-k truncation)."),
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
	q.Catalog.InstrumentExec(&m.exec)
	if qc := q.qc; qc != nil {
		qc.exp.Instrument(m.expHits, m.expMisses, m.expEvictions)
		qc.expG.Instrument(m.expComputes, m.expCoalesced)
		qc.mat.Instrument(m.matHits, m.matMisses, m.matEvictions)
		qc.matG.Instrument(m.matComputes, m.matCoalesced)
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
// registry: wall time into the duration summary, per-stage totals into the
// stage families. No-op on a nil trace, so the untraced path pays one nil
// check and no clock read.
func (q *Q) observeTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	m := q.metrics
	m.queryDur.Record(tr.Wall())
	for stage, d := range tr.StageTotals() {
		m.stageTime[stage].Add(int64(d))
		m.stageOps[stage].Inc()
	}
}

// countTopK folds one top-k pruned union's counters into the registry
// (executed branches and pulled rows are already counted by the executor's
// own ExecCounters).
func (q *Q) countTopK(s relstore.TopKUnionStats) {
	q.metrics.topkBranchesSkipped.Add(int64(s.BranchesSkipped))
}
