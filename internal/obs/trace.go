package obs

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one phase of query processing. The values are the Prometheus
// label values of the qint_query_stage_* families and the row labels of a
// trace breakdown, so they are part of the wire surface.
type Stage string

// The query pipeline's stages, in execution order. cache_lookup and
// coalesced_wait are serving-layer stages (the epoch-keyed materialisation
// cache in front of the pipeline); the rest are the pipeline itself —
// keyword expansion, Steiner search, tree→query translation, join
// planning, branch execution, and the final materialisation assembly
// (α computation and result packaging).
const (
	StageCacheLookup   Stage = "cache_lookup"
	StageCoalescedWait Stage = "coalesced_wait"
	StageExpand        Stage = "expand"
	StageSteiner       Stage = "steiner"
	StageTranslate     Stage = "translate"
	StagePlan          Stage = "plan"
	StageExecute       Stage = "execute"
	StageMaterialize   Stage = "materialize"
)

// Stages returns every stage in canonical pipeline order — the iteration
// order metric registration and breakdown rendering use.
func Stages() []Stage {
	return []Stage{
		StageCacheLookup, StageCoalescedWait, StageExpand, StageSteiner,
		StageTranslate, StagePlan, StageExecute, StageMaterialize,
	}
}

// Span is one recorded stage interval, offset-relative to the trace start.
type Span struct {
	Stage Stage
	Start time.Duration // offset from the trace's begin time
	Dur   time.Duration
}

// traceBase randomises the id prefix per process so ids from a restarted
// server never collide with the previous incarnation's.
var traceBase = rand.Uint32()

// traceSeq numbers traces within the process.
var traceSeq atomic.Uint64

// Trace is one query's stage breakdown: an id, a start time, and the spans
// the pipeline recorded while running under it. A nil *Trace is the
// disabled fast path — every method no-ops (Now returns the zero time,
// Record does nothing), so the engine threads a trace pointer through its
// hot path at the cost of one nil check per stage, and pays for clock
// reads only when a caller actually asked for tracing.
//
// Record is safe for concurrent use (parallel pipeline stages may record
// from worker goroutines); the accessors are meant for after Finish.
type Trace struct {
	id    string
	begin time.Time

	mu    sync.Mutex
	spans []Span
	wall  time.Duration
	done  bool
}

// NewTrace starts a trace now, with a fresh process-unique id.
func NewTrace() *Trace {
	return &Trace{
		id:    fmt.Sprintf("%08x-%08x", traceBase, uint32(traceSeq.Add(1))),
		begin: time.Now(),
	}
}

// ID returns the trace id ("" on a nil trace) — the X-Q-Trace header value.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Now returns the current time, or the zero time on a nil trace — the
// start-of-stage capture that makes an untraced stage cost one nil check
// instead of a clock read.
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Record appends a span for stage, spanning from (a Now() capture) to the
// current time. No-op on a nil trace or a zero from.
func (t *Trace) Record(stage Stage, from time.Time) {
	if t == nil || from.IsZero() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Start: from.Sub(t.begin), Dur: now.Sub(from)})
	t.mu.Unlock()
}

// Finish freezes the trace's wall-clock time. Idempotent; later Record
// calls still append but Wall stays fixed at the first Finish.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if !t.done {
		t.wall = now.Sub(t.begin)
		t.done = true
	}
	t.mu.Unlock()
}

// Wall returns the traced query's wall-clock time (Finish must have run;
// before that it returns the time elapsed so far).
func (t *Trace) Wall() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return t.wall
	}
	return time.Since(t.begin)
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// StageTotals sums span durations per stage.
func (t *Trace) StageTotals() map[Stage]time.Duration {
	totals := make(map[Stage]time.Duration)
	for _, s := range t.Spans() {
		totals[s.Stage] += s.Dur
	}
	return totals
}

// StageSum is the sum of all span durations — the quantity the acceptance
// bound compares against Wall. Only tests call it: core's
// TestEngineMatchesReference checks 0 < StageSum <= Wall for every traced
// query.
func (t *Trace) StageSum() time.Duration {
	var sum time.Duration
	for _, s := range t.Spans() {
		sum += s.Dur
	}
	return sum
}

// String renders the breakdown for terminals and the slow-query log: one
// header line (id, wall, stage-sum coverage) and one line per stage in
// canonical order, with its total, share of wall and span count.
func (t *Trace) String() string {
	if t == nil {
		return "(no trace)"
	}
	spans := t.Spans()
	wall := t.Wall()
	totals := make(map[Stage]time.Duration)
	counts := make(map[Stage]int)
	for _, s := range spans {
		totals[s.Stage] += s.Dur
		counts[s.Stage]++
	}
	var sum time.Duration
	for _, d := range totals {
		sum += d
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s: wall %v, %d spans covering %v", t.ID(), wall, len(spans), sum)
	if wall > 0 {
		fmt.Fprintf(&b, " (%.0f%%)", 100*float64(sum)/float64(wall))
	}
	b.WriteByte('\n')
	ordered := Stages()
	seen := make(map[Stage]bool, len(ordered))
	for _, st := range ordered {
		seen[st] = true
	}
	// Unknown stages (future layers) sort after the canonical ones.
	var extra []Stage
	for st := range totals {
		if !seen[st] {
			extra = append(extra, st)
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
	for _, st := range append(ordered, extra...) {
		d, ok := totals[st]
		if !ok {
			continue
		}
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(d) / float64(wall)
		}
		fmt.Fprintf(&b, "  %-14s %12v  %5.1f%%  x%d\n", st, d, pct, counts[st])
	}
	return b.String()
}
