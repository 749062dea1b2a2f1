package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exposition text for the deterministic
// instrument kinds: family ordering (by name), series ordering (by label
// string), HELP/TYPE lines, integer counters, scaled counters and callback
// gauges. Summaries are exercised separately (their quantile estimates are
// bucket midpoints, not stable constants).
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "Operations.", Label{Name: "kind", Value: "write"}).Add(3)
	r.Counter("test_ops_total", "Operations.", Label{Name: "kind", Value: "read"}).Add(7)
	r.ScaledCounter("test_busy_seconds_total", "Busy time.", 1e-9).Add(int64(1500 * time.Millisecond))
	r.GaugeFunc("test_depth", "Queue depth.", func() float64 { return 4 })
	r.Counter("test_alpha_total", "Sorts first.").Inc()

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP test_alpha_total Sorts first.
# TYPE test_alpha_total counter
test_alpha_total 1
# HELP test_busy_seconds_total Busy time.
# TYPE test_busy_seconds_total counter
test_busy_seconds_total 1.5
# HELP test_depth Queue depth.
# TYPE test_depth gauge
test_depth 4
# HELP test_ops_total Operations.
# TYPE test_ops_total counter
test_ops_total{kind="read"} 7
test_ops_total{kind="write"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotent checks the re-registration contract: same
// name+labels returns the same *Counter / *Histogram, and GaugeFunc
// replaces the callback (latest closure wins) instead of duplicating the
// series.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	l := Label{Name: "cache", Value: "mat"}
	c1 := r.Counter("test_hits_total", "h", l)
	c1.Add(5)
	c2 := r.Counter("test_hits_total", "h", l)
	if c1 != c2 {
		t.Fatalf("re-registered counter is a different pointer")
	}
	if c2.Load() != 5 {
		t.Fatalf("re-registered counter lost its value: %d", c2.Load())
	}
	if h1, h2 := r.Histogram("test_lat", "l"), r.Histogram("test_lat", "l"); h1 != h2 {
		t.Fatalf("re-registered histogram is a different pointer")
	}

	r.GaugeFunc("test_gauge", "g", func() float64 { return 1 })
	r.GaugeFunc("test_gauge", "g", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "test_gauge 2\n") {
		t.Errorf("replaced gauge callback not used:\n%s", out)
	}
	if strings.Contains(out, "test_gauge 1\n") {
		t.Errorf("stale gauge series still exposed:\n%s", out)
	}
}

// TestExpositionRoundTrip feeds the writer's output (including a summary
// family) back through the parser: it must parse cleanly and report the
// same families and values.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_queries_total", "q").Add(42)
	r.Counter("rt_cache_hits_total", "h", Label{Name: "cache", Value: `we"ird\`}).Add(9)
	h := r.Histogram("rt_latency_seconds", "lat")
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	r.GaugeFunc("rt_depth", "d", func() float64 { return 3.5 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exp, err := ParseExposition(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseExposition of own output: %v", err)
	}
	for name, typ := range map[string]string{
		"rt_queries_total":    "counter",
		"rt_cache_hits_total": "counter",
		"rt_latency_seconds":  "summary",
		"rt_depth":            "gauge",
	} {
		if got := exp.Types[name]; got != typ {
			t.Errorf("family %s: type %q, want %q", name, got, typ)
		}
	}
	if missing := exp.MissingFamilies([]string{"rt_queries_total", "rt_latency_seconds", "rt_depth"}); len(missing) != 0 {
		t.Errorf("MissingFamilies reported %v", missing)
	}
	if v, ok := exp.Value("rt_queries_total"); !ok || v != 42 {
		t.Errorf("rt_queries_total = %v, %v; want 42, true", v, ok)
	}
	if v, ok := exp.Value(`rt_cache_hits_total{cache="we\"ird\\"}`); !ok || v != 9 {
		t.Errorf("escaped-label series = %v, %v; want 9, true", v, ok)
	}
	if v, ok := exp.Value("rt_latency_seconds_count"); !ok || v != 100 {
		t.Errorf("summary count = %v, %v; want 100, true", v, ok)
	}
	if v, ok := exp.Value("rt_latency_seconds_sum"); !ok || v < 0.09 || v > 0.11 {
		t.Errorf("summary sum = %v (ok=%v); want ~0.1s", v, ok)
	}
}

// TestParseExpositionRejectsMalformed checks the parser actually validates
// (the CI smoke depends on a parse error meaning a broken endpoint).
func TestParseExpositionRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"9leading_digit 1\n",
		"no_value\n",
		`unterminated{a="b 1` + "\n",
		"too many fields 1 2 3\n",
		"bad_value NaNaN\n",
		"# TYPE short\n",
		"# TYPE name enum\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseExposition(%q) accepted malformed input", bad)
		}
	}
}

// TestNilInstruments checks every disabled-instrument fast path: a nil
// counter, trace or histogram must be safe on all methods.
func TestNilInstruments(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(10)
	if c.Load() != 0 {
		t.Errorf("nil counter Load = %d", c.Load())
	}

	var tr *Trace
	tr.Mark(StageExpand)
	tr.Finish()
	if tr.ID() != "" || tr.Wall() != 0 || tr.Breakdown() != (Breakdown{}) {
		t.Errorf("nil trace accessors not zero")
	}
	if tr.String() != "(no trace)" {
		t.Errorf("nil trace String = %q", tr.String())
	}
}

// TestTraceBreakdown exercises the live-trace path: each mark closes its
// stage at the time since the previous mark, Finish freezes wall, String
// renders every marked stage.
func TestTraceBreakdown(t *testing.T) {
	tr := NewTrace()
	if tr.ID() == "" {
		t.Fatalf("empty trace id")
	}
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		tr.Mark(StageExecute)
	}
	tr.Mark(StagePlan)
	tr.Finish()

	b := tr.Breakdown()
	exec, plan := StageExecute.index(), StagePlan.index()
	if b.Dur[exec] < 3*time.Millisecond || b.Marks[exec] != 3 {
		t.Errorf("execute %v in %d marks, want >= 3ms in 3", b.Dur[exec], b.Marks[exec])
	}
	if b.Marks[plan] != 1 {
		t.Errorf("plan took %d marks, want 1", b.Marks[plan])
	}
	var sum time.Duration
	for _, d := range b.Dur {
		sum += d
	}
	if last := tr.last.Sub(tr.begin); sum != last || sum > tr.Wall() {
		t.Errorf("stage sum %v, want the last mark's offset %v, at most wall %v", sum, last, tr.Wall())
	}
	wall := tr.Wall()
	time.Sleep(2 * time.Millisecond)
	if tr.Wall() != wall {
		t.Errorf("Wall moved after Finish: %v -> %v", wall, tr.Wall())
	}
	out := tr.String()
	for _, want := range []string{tr.ID(), "4 spans", "execute", "plan", "x3"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, string(StageSteiner)) {
		t.Errorf("trace rendering lists an unmarked stage:\n%s", out)
	}
}

// TestTraceMarkUnknownStage: a stage outside Stages() is a programming
// error, not a new row.
func TestTraceMarkUnknownStage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Mark of an unknown stage did not panic")
		}
	}()
	NewTrace().Mark("rerank")
}

// TestTraceMarkAllocs: marking, finishing and reading the record of a live
// trace allocate nothing.
func TestTraceMarkAllocs(t *testing.T) {
	tr := NewTrace()
	var b Breakdown
	if n := testing.AllocsPerRun(100, func() {
		tr.Mark(StageCacheLookup)
		tr.Finish()
		b = tr.Breakdown()
	}); n != 0 {
		t.Errorf("Mark + Finish + Breakdown allocate %v times, want 0", n)
	}
	if b.Marks[StageCacheLookup.index()] == 0 {
		t.Errorf("no cache_lookup mark recorded")
	}
}

// TestTraceIDs: ids carry the full 64-bit sequence number, so they do not
// repeat after 2^32 traces, and keep 8 hex digits on each side below it.
func TestTraceIDs(t *testing.T) {
	if a, b := traceID(1), traceID(1<<32+1); a == b {
		t.Errorf("sequence numbers 1 and 2^32+1 share the id %q", a)
	}
	want := fmt.Sprintf("%08x-%08x", traceBase, 1)
	if got := traceID(1); got != want {
		t.Errorf("traceID(1) = %q, want %q", got, want)
	}
	want = fmt.Sprintf("%08x-%08x", traceBase, uint64(1<<32+1))
	if got := traceID(1<<32 + 1); got != want {
		t.Errorf("traceID(2^32+1) = %q, want %q", got, want)
	}
}

// TestTraceConcurrentRecord hammers Mark from many goroutines under -race.
// The engine marks a query's trace from one goroutine (branch execution is
// serial), but Mark stays safe for concurrent use, and concurrent marks
// still partition the traced time.
func TestTraceConcurrentRecord(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Mark(StageExecute)
			}
		}()
	}
	wg.Wait()
	tr.Finish()
	b := tr.Breakdown()
	if got := b.Marks[StageExecute.index()]; got != 8*200 {
		t.Errorf("recorded %d marks, want %d", got, 8*200)
	}
	if d := b.Dur[StageExecute.index()]; d < 0 || d > tr.Wall() {
		t.Errorf("execute total %v outside [0, wall=%v]", d, tr.Wall())
	}
}
