package main

import (
	"io"
	"math"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}, // 0.9·4 = 3.6 → 4 + 0.6·(5−4)
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Error("quantile reordered its input")
	}
}

// fakeMachine is a clock source whose speed the test sets: every unit of
// work advances time by its cost × slow.
type fakeMachine struct {
	now  time.Time
	slow float64
}

func (m *fakeMachine) work(d time.Duration) { m.now = m.now.Add(time.Duration(float64(d) * m.slow)) }

func (m *fakeMachine) clock() *clock {
	return &clock{
		now:    func() time.Time { return m.now },
		kernel: func() int { m.work(time.Duration(calibRefUS * float64(time.Microsecond))); return 0 },
	}
}

func TestSpeedNormalisation(t *testing.T) {
	// An op that takes 1 ms at reference speed, on a machine that drops to
	// half speed a third of the way in and recovers for the last third.
	m := &fakeMachine{now: time.Unix(0, 0), slow: 1}
	c := m.clock()
	var ts []timing
	for i := 0; i < 300; i++ {
		switch i {
		case 100:
			m.slow = 2
		case 200:
			m.slow = 1
		}
		id := c.open()
		for j := 0; j < 4; j++ {
			t0 := m.now
			m.work(time.Millisecond)
			ts = append(ts, timing{ms(m.now.Sub(t0)), id})
		}
		c.close()
	}
	raw := make([]float64, len(ts))
	for i, tm := range ts {
		raw[i] = tm.ms
	}
	if got := quantile(raw, 0.9); got != 2 {
		t.Fatalf("raw p90 = %v ms: the slow-down did not happen", got)
	}
	norm := c.norms(ts)
	if got := median(norm); math.Abs(got-1) > 0.02 {
		t.Errorf("normalised median = %v ms, want 1 ms within 2%%", got)
	}
	// Only the blocks whose window straddles a change of speed may be off.
	off := 0
	for _, x := range norm {
		if math.Abs(x-1) > 0.02 {
			off++
		}
	}
	if max := 4 * 4 * speedWindow; off > max {
		t.Errorf("%d of %d samples are off by more than 2%%, want at most %d", off, len(norm), max)
	}
	if got := c.speed(150); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("speed in the slow stretch = %v, want 0.5", got)
	}
}

func TestClockReusesBackToBackBursts(t *testing.T) {
	m := &fakeMachine{now: time.Unix(0, 0), slow: 1}
	c := m.clock()
	c.open()
	c.close()
	c.open() // back to back: no new burst
	c.close()
	if got := len(c.bursts); got != 3 {
		t.Errorf("two adjacent blocks took %d bursts, want 3", got)
	}
	m.work(10 * staleAfter)
	c.open() // after a gap: a fresh burst
	c.close()
	if got := len(c.bursts); got != 5 {
		t.Errorf("a block after a gap brought the bursts to %d, want 5", got)
	}
}

func TestCalibDoesConstantWork(t *testing.T) {
	want := calib()
	a := testing.AllocsPerRun(20, func() {
		if got := calib(); got != want {
			t.Fatalf("calib() = %d, then %d", want, got)
		}
	})
	b := testing.AllocsPerRun(20, func() { calib() })
	if a != b || a < 100 {
		t.Errorf("calib allocates %v then %v times per call, want a fixed count in the hundreds", a, b)
	}
}

func TestOpListHash(t *testing.T) {
	for _, name := range []string{"read_hot", "ingest_restart"} {
		w := workloadByName(name)
		hash := func(seed int64) string {
			p, err := buildPlan(w, seed, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			return p.hash
		}
		a, b, c := hash(7), hash(7), hash(8)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s, then to %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both hashed to %s", name, a)
		}
	}
}

func TestGeneratedQueriesHaveTwoKeywords(t *testing.T) {
	g := newGen(1, describe(baseTables(2)))
	next := g.queryCandidates(func(template) bool { return true })
	for i := 0; i < 500; i++ {
		q := next()
		key, word := keywordsOf(queryBody(q))
		if key == "" || word == "" {
			t.Fatalf("query %q is not '<key>' <word>", q)
		}
	}
}

// TestQuickEmitsTheCommittedMetrics runs every workload at 1/50 size, with
// and without tracing, and compares the metric names with BENCHMARK.json.
func TestQuickEmitsTheCommittedMetrics(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the benchmark does not have", sw.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := runWorkload(w, config{seed: 1, seconds: refSeconds, quick: true, trace: trace, log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.failed > 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, res.failed, res.attempted, res.failures)
			}
			got := make(map[string]string)
			for _, m := range res.metrics {
				got[m.name] = m.unit
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, m.name, m.value)
				}
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok {
					t.Errorf("%s trace=%v: %s is in BENCHMARK.json but was not emitted", w.name, trace, m.Name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s emitted in %q, BENCHMARK.json says %q", w.name, trace, m.Name, unit, m.Unit)
				}
				delete(got, m.Name)
			}
			for name := range got {
				t.Errorf("%s trace=%v: %s was emitted but is not in BENCHMARK.json", w.name, trace, name)
			}
		}
	}
}
