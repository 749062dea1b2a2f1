package obs

import (
	"fmt"
	"math/rand"
	"strconv"
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

var stages = [...]Stage{
	StageCacheLookup, StageCoalescedWait, StageExpand, StageSteiner,
	StageTranslate, StagePlan, StageExecute, StageMaterialize,
}

// NumStages is len(Stages()), the length of a Breakdown's arrays.
const NumStages = len(stages)

// Stages returns every stage in canonical pipeline order — the iteration
// order metric registration and breakdown rendering use, and the index
// order of a Breakdown.
func Stages() []Stage {
	s := stages // a copy, so callers cannot reorder the package's
	return s[:]
}

// index is stage's position in Stages(). Only the stages above exist, so
// any other value is a programming error.
func (s Stage) index() int {
	for i, st := range stages {
		if st == s {
			return i
		}
	}
	panic("obs: unknown trace stage " + strconv.Quote(string(s)))
}

// Breakdown is a trace's per-stage record, indexed by position in
// Stages(): the time each stage's marks closed and how many marks it took.
type Breakdown struct {
	Dur   [NumStages]time.Duration
	Marks [NumStages]int
}

// traceBase randomises the id prefix per process so ids from a restarted
// server never collide with the previous incarnation's.
var traceBase = rand.Uint32()

// traceSeq numbers traces within the process.
var traceSeq atomic.Uint64

// Trace is one query's stage breakdown: an id, a start time, and a fixed
// per-stage record that Mark fills. Mark(stage) closes stage at the current
// time: the time since the previous mark (or since the trace started) goes
// to that stage, so every traced nanosecond up to the last mark belongs to
// exactly one stage, and the stage times add up to the last mark's offset.
//
// A nil *Trace is the disabled fast path — every method no-ops, so the
// engine threads a trace pointer through its hot path at the cost of one
// nil check per stage and pays for clock reads only when a caller asked
// for tracing. Mark is safe for concurrent use; the accessors are meant
// for after Finish.
type Trace struct {
	id    string
	begin time.Time

	mu   sync.Mutex
	last time.Time // the previous mark, or begin
	b    Breakdown
	wall time.Duration
	done bool
}

// NewTrace starts a trace now, with a fresh process-unique id.
func NewTrace() *Trace {
	now := time.Now()
	return &Trace{id: traceID(traceSeq.Add(1)), begin: now, last: now}
}

// traceID renders the id of the process's seq-th trace: the process
// prefix and the sequence number in hex, each at least 8 digits.
func traceID(seq uint64) string {
	var buf [8 + 1 + 16]byte
	b := appendHex8(buf[:0], uint64(traceBase))
	return string(appendHex8(append(b, '-'), seq))
}

// appendHex8 appends v in lower-case hex, zero-padded to 8 digits.
func appendHex8(b []byte, v uint64) []byte {
	for d := uint64(1) << 28; d > v && d > 1; d >>= 4 {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, v, 16)
}

// ID returns the trace id ("" on a nil trace) — the X-Q-Trace header value.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Mark ends stage now: the time since the previous mark, or since the
// trace started, is added to stage's total and its mark count grows by
// one. No-op on a nil trace; panics on a stage not in Stages().
func (t *Trace) Mark(stage Stage) {
	if t == nil {
		return
	}
	i := stage.index()
	t.mu.Lock()
	now := time.Now() // read under the lock, so concurrent marks stay ordered
	t.b.Dur[i] += now.Sub(t.last)
	t.b.Marks[i]++
	t.last = now
	t.mu.Unlock()
}

// Finish freezes the trace's wall-clock time. Idempotent: Wall stays fixed
// at the first Finish.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.wall = time.Since(t.begin)
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

// Breakdown returns the per-stage record (all zero on a nil trace).
func (t *Trace) Breakdown() Breakdown {
	if t == nil {
		return Breakdown{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.b
}

// String renders the breakdown for terminals and the slow-query log: one
// header line (id, wall, marks and the time they cover) and one line per
// marked stage in canonical order, with its total, share of wall and mark
// count.
func (t *Trace) String() string {
	if t == nil {
		return "(no trace)"
	}
	b := t.Breakdown()
	wall := t.Wall()
	var sum time.Duration
	marks := 0
	for i, d := range b.Dur {
		sum += d
		marks += b.Marks[i]
	}
	var sb strings.Builder
	// The slow-query log's header still counts marks as "spans".
	fmt.Fprintf(&sb, "trace %s: wall %v, %d spans covering %v", t.ID(), wall, marks, sum)
	if wall > 0 {
		fmt.Fprintf(&sb, " (%.0f%%)", 100*float64(sum)/float64(wall))
	}
	sb.WriteByte('\n')
	for i, st := range stages {
		if b.Marks[i] == 0 {
			continue
		}
		pct := 0.0
		if wall > 0 {
			pct = 100 * float64(b.Dur[i]) / float64(wall)
		}
		fmt.Fprintf(&sb, "  %-14s %12v  %5.1f%%  x%d\n", st, b.Dur[i], pct, b.Marks[i])
	}
	return sb.String()
}
