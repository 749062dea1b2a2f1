package core

import (
	"strings"
	"testing"
	"time"

	"qint/internal/obs"
	"qint/internal/relstore"
)

// TestUntracedQueryReturnsNilTrace pins the disabled fast path: a request
// without a Trace must not fabricate one.
func TestUntracedQueryReturnsNilTrace(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := queryStr(q, "entry 'PUB0001'"); err != nil {
		t.Fatal(err)
	}
	if q.metrics.queryDur.Count() != 0 {
		t.Errorf("untraced query recorded a duration sample")
	}
}

// TestEngineMetricsAccounting runs traced queries and checks the registry
// view agrees with the legacy accessors and with what actually happened:
// query totals, stage time, cache hit on the repeat, and a valid /metrics
// exposition covering the engine families.
func TestEngineMetricsAccounting(t *testing.T) {
	q := newFixtureQ(t, true)
	kws := ParseKeywords("entry 'PUB0001'")
	if _, err := q.Query(Request{Keywords: kws, Trace: obs.NewTrace()}); err != nil {
		t.Fatal(err)
	}
	// Identical ephemeral query: served from the materialisation cache.
	if _, err := q.Query(Request{Keywords: kws, Ephemeral: true, Trace: obs.NewTrace()}); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := q.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("engine exposition is invalid: %v", err)
	}
	if missing := exp.MissingFamilies([]string{
		"qint_queries_total", "qint_query_errors_total", "qint_query_duration_seconds",
		"qint_query_stage_seconds_total", "qint_query_stage_ops_total",
		"qint_align_base_matcher_calls_total", "qint_plan_branches_planned_total",
		"qint_exec_branches_total", "qint_cache_hits_total", "qint_epoch", "qint_views",
	}); len(missing) != 0 {
		t.Errorf("engine exposition missing families: %v", missing)
	}

	if v, _ := exp.Value("qint_queries_total"); v != 2 {
		t.Errorf("qint_queries_total = %v, want 2", v)
	}
	if v, _ := exp.Value("qint_query_duration_seconds_count"); v != 2 {
		t.Errorf("duration summary count = %v, want 2", v)
	}
	if v, _ := exp.Value(`qint_cache_hits_total{cache="materialization"}`); v != 1 {
		t.Errorf("materialization cache hits = %v, want 1", v)
	}
	if v, _ := exp.Value(`qint_query_stage_seconds_total{stage="expand"}`); v <= 0 {
		t.Errorf("expand stage seconds = %v, want > 0", v)
	}
	if v, _ := exp.Value(`qint_query_stage_ops_total{stage="cache_lookup"}`); v != 2 {
		t.Errorf("cache_lookup ops = %v, want 2", v)
	}

	// The legacy views read the same counters the registry exposes.
	cs := q.CacheStats()
	if got, _ := exp.Value(`qint_cache_hits_total{cache="materialization"}`); uint64(got) != cs.Materialization.Hits {
		t.Errorf("CacheStats materialization hits %d != exposed %v", cs.Materialization.Hits, got)
	}
	// The executor families count view materialisations: every planned
	// branch was either executed or skipped by the top-k bound.
	branches, _ := exp.Value("qint_exec_branches_total")
	skipped, _ := exp.Value("qint_topk_branches_skipped_total")
	if planned, _ := exp.Value("qint_plan_branches_planned_total"); branches <= 0 || branches+skipped != planned {
		t.Errorf("qint_exec_branches_total = %v and %v skipped, want > 0 and %v planned in all", branches, skipped, planned)
	}
	if rows, _ := exp.Value("qint_exec_rows_total"); rows <= 0 {
		t.Errorf("qint_exec_rows_total = %v, want > 0", rows)
	}
	if got, _ := exp.Value("qint_align_base_matcher_calls_total"); int(got) != q.Stats.BaseMatcherCalls() {
		t.Errorf("Stats.BaseMatcherCalls %d != exposed %v", q.Stats.BaseMatcherCalls(), got)
	}
	if v, _ := exp.Value("qint_epoch"); v != float64(q.Epoch()) {
		t.Errorf("qint_epoch = %v, want %d", v, q.Epoch())
	}
	if q.EpochTime().IsZero() {
		t.Errorf("EpochTime is zero after publish")
	}
}

// TestWarmTracedHitMarksLookupOnly: a traced query answered from the
// materialisation cache marks cache_lookup once and no other stage, and
// the mark covers the traced time.
func TestWarmTracedHitMarksLookupOnly(t *testing.T) {
	q := newFixtureQ(t, true)
	kws := ParseKeywords("entry 'PUB0001'")
	if _, err := q.Query(Request{Keywords: kws, Ephemeral: true}); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace()
	if _, err := q.Query(Request{Keywords: kws, Ephemeral: true, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	b := tr.Breakdown()
	for i, st := range obs.Stages() {
		if st == obs.StageCacheLookup {
			if b.Marks[i] != 1 || b.Dur[i] <= 0 || b.Dur[i] > tr.Wall() {
				t.Errorf("%s: %v in %d marks, want (0, wall=%v] in 1", st, b.Dur[i], b.Marks[i], tr.Wall())
			}
		} else if b.Marks[i] != 0 {
			t.Errorf("%s: %d marks on a cache hit", st, b.Marks[i])
		}
	}
}

// TestFeedbackWriteStages: one feedback on a durable engine runs every
// write stage — the k-best page, the MIRA update, the repricing, the WAL
// append, the publish and the view refresh — and the stages, which follow
// one another, add up to no more than the call's wall time.
func TestFeedbackWriteStages(t *testing.T) {
	q := openDurable(t, durableOpts(t), manualCheckpoints)
	t.Cleanup(func() { q.Close() })
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	var before [numWriteStages]int64
	for st, c := range q.metrics.writeTime {
		before[st] = c.Load()
	}
	start := time.Now()
	if err := q.FeedbackRow(v, 0, FeedbackValid); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var sum time.Duration
	for st, c := range q.metrics.writeTime {
		d := time.Duration(c.Load() - before[st])
		if d <= 0 {
			t.Errorf("write stage %s took %v, want > 0", writeStageNames[st], d)
		}
		sum += d
	}
	if sum > wall {
		t.Errorf("write stages sum to %v, more than the feedback's wall time %v", sum, wall)
	}

	var sb strings.Builder
	if err := q.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("engine exposition is invalid: %v", err)
	}
	for _, name := range writeStageNames {
		if v, ok := exp.Value(`qint_write_stage_seconds_total{stage="` + name + `"}`); !ok || v <= 0 {
			t.Errorf("qint_write_stage_seconds_total{stage=%q} = %v (present %v), want > 0", name, v, ok)
		}
	}
}

// TestRecoveryStages: reopening a crashed data directory — a snapshot, a
// WAL tail and a view — runs every recovery stage, and the stages, which
// follow one another, add up to no more than Open's wall time. A
// checkpoint on the reopened engine shows as the write path's checkpoint
// stage.
func TestRecoveryStages(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if _, err := queryStr(q, "'plasma membrane' 'Kringle domain'"); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := q.AddTables(journalTable(t, "tail")); err != nil {
		t.Fatal(err)
	}
	if err := q.persist.store.Close(); err != nil { // crash: the tail stays in the WAL
		t.Fatal(err)
	}

	start := time.Now()
	r, err := Open(opts)
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	var sum time.Duration
	for st, c := range r.metrics.recoveryTime {
		d := time.Duration(c.Load())
		if d <= 0 {
			t.Errorf("recovery stage %s took %v, want > 0", recoveryStageNames[st], d)
		}
		sum += d
	}
	if sum > wall {
		t.Errorf("recovery stages sum to %v, more than Open's wall time %v", sum, wall)
	}
	t.Logf("Open %v: stages sum to %v", wall, sum)

	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("engine exposition is invalid: %v", err)
	}
	for _, name := range recoveryStageNames {
		if v, ok := exp.Value(`qint_recovery_stage_seconds_total{stage="` + name + `"}`); !ok || v <= 0 {
			t.Errorf("qint_recovery_stage_seconds_total{stage=%q} = %v (present %v), want > 0", name, v, ok)
		}
	}
	if v, ok := exp.Value(`qint_write_stage_seconds_total{stage="checkpoint"}`); !ok || v <= 0 {
		t.Errorf(`qint_write_stage_seconds_total{stage="checkpoint"} = %v (present %v), want > 0`, v, ok)
	}
}
