// Command bench is the repository's benchmark: four fixed-work workloads
// driven closed-loop through server.Server.ServeHTTP, timed at reference
// speed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number. n is the sample count behind a quantile
// (0 where the metric is not a quantile).
type metric struct {
	name, unit string
	value      float64
	n          int
}

// result is what one run of one workload reports.
type result struct {
	workload  string
	hash      string
	attempted int
	failed    int
	failures  []string
	metrics   []metric
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	panic("no metric " + name)
}

// jsonLine is the machine-readable last line of a single-workload run.
func (r *result) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]mv)}
	for _, m := range r.metrics {
		out.Metrics[m.name] = mv{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // NaN or Inf: a metric was computed over no samples
	}
	return string(b)
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  op-list %s  attempted %d  failed %d\n", r.workload, r.hash, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	for _, m := range r.metrics {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %s%s\n", m.name, m.value, m.unit, n)
	}
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	quick   bool
	trace   bool
	log     io.Writer
}

func (c config) scale() float64 {
	s := float64(c.seconds) / refSeconds
	if c.quick {
		s /= 50
	}
	return s
}

// setUps is how many times a run sets the engine up; setup_s is the median.
const setUps = 5

func (c config) setUps() int {
	if c.quick {
		return 2
	}
	return setUps
}

// runWorkload runs w once and reports its end-to-end metrics, or with
// cfg.trace its per-layer metrics.
func runWorkload(w *workload, cfg config) (*result, error) {
	p, err := buildPlan(w, cfg.seed, cfg.scale())
	if err != nil {
		return nil, err
	}
	root := filepath.Join("out", "tmp", fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	tStart := time.Now()
	lap := func(what string) {
		fmt.Fprintf(cfg.log, "  [%6.2fs] %s\n", time.Since(tStart).Seconds(), what)
	}
	lap("plan built")
	r := &run{p: p, clk: newClock(), out: cfg.log, first: make(map[int]firstAnswer), payloadBytes: p.baseBytes}
	var setups [][]timing
	for i := 0; i < cfg.setUps(); i++ {
		if r.e != nil {
			if err := r.e.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		e, steps, err := r.setUp(filepath.Join(root, fmt.Sprintf("data%d", i)), i == cfg.setUps()-1)
		if err != nil {
			return nil, err
		}
		r.e = e
		setups = append(setups, steps)
	}
	defer func() { r.e.close() }()

	lap("set up")
	runtime.GC()
	res := &result{workload: w.name, hash: p.hash}
	finish := func() {
		r.attempted++
		if shed, err := r.shedTotal(); err != nil || shed != 0 {
			r.fail("closed loop shed %d requests (%v)", shed, err)
		}
		res.attempted, res.failed, res.failures = r.attempted, r.failed, r.failures
	}
	if cfg.trace {
		res.metrics, err = r.traced()
		lap("traced pass")
		finish()
		return res, err
	}
	main := r.phase(p.main, nil)
	lap("main phase")
	r.checkViews()
	// Space is the main phase's: the floor phase below only supplies
	// latency samples of the ops the main phase is short of.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	disk, err := dirBytes(r.e.dir)
	if err != nil {
		return nil, err
	}
	payload := r.payloadBytes

	r.phase(p.floor, nil)
	lap("floor phase")
	r.checkViews()
	if err := r.recoverCycles(p.recoveries); err != nil {
		return nil, err
	}
	lap("recovery cycles")
	finish()
	// setup_s: the steps before the warm-up are the median of the set-ups'
	// sums; the warm-up pass ran once, on the engine the workload then used.
	n := len(setups[0])
	var builds []float64
	for _, steps := range setups {
		builds = append(builds, sum(r.clk.norms(steps[:n])))
	}
	setupS := (median(builds) + sum(r.clk.norms(setups[len(setups)-1][n:]))) / 1e3
	p50 := func(name string, ts []timing) metric {
		return metric{name, "ms", median(r.clk.norms(ts)), len(ts)}
	}
	res.metrics = []metric{
		{"setup_s", "s", setupS, len(setups)},
		{"ops_per_s", "1/s", float64(len(main)) / (sum(r.clk.norms(main)) / 1e3), 0},
		p50("query_p50_ms", r.ops[opQuery]),
		{"query_alloc_kb", "KB", float64(r.allocBytes) / 1024 / float64(r.allocQueries), 0},
		p50("register_p50_ms", r.ops[opRegister]),
		p50("feedback_p50_ms", r.ops[opFeedback]),
		p50("recovery_p50_ms", r.recovery),
		{"live_heap_mb", "MB", float64(mem.HeapAlloc) / (1 << 20), 0},
		{"disk_amplification", "ratio", float64(disk) / float64(payload), 0},
	}
	fmt.Fprintf(cfg.log, "  machine: calib p50 %.1f µs (reference %.0f µs); raw query p50 %.4f ms\n",
		median(r.clk.samples()), calibRefUS, median(raws(r.ops[opQuery])))
	return res, nil
}

// shedTotal reads the serving counters: in a closed loop nothing may be shed.
func (r *run) shedTotal() (int64, error) {
	r.e.do("GET", "/stats", nil)
	var st struct {
		Serving struct {
			ShedQueries int64 `json:"shed_queries"`
			ShedWrites  int64 `json:"shed_writes"`
		} `json:"serving"`
	}
	if !r.e.ok() {
		return 0, fmt.Errorf("GET /stats: status %d", r.e.w.status)
	}
	if err := json.Unmarshal(r.e.w.body.Bytes(), &st); err != nil {
		return 0, err
	}
	return st.Serving.ShedQueries + st.Serving.ShedWrites, nil
}

// normaliseArgs lets `-trace` stand alone (meaning 1) although the flag
// takes a value, because the harness passes `--trace 0|1`.
func normaliseArgs(args []string) []string {
	var out []string
	for i, a := range args {
		out = append(out, a)
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			out = append(out, "1")
		}
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", refSeconds, "run length the op counts are scaled to")
	trace := fs.Int("trace", 0, "1: traced pass, per-layer metrics and out/trace_<workload>.json")
	quick := fs.Bool("quick", false, "1/50 of the work (smoke test)")
	selfcheck := fs.Bool("selfcheck", false, "A/A noise gate: run everything twice, compare within the bounds")
	fs.Parse(normaliseArgs(os.Args[1:]))

	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, trace: *trace != 0, log: os.Stdout}
	if *selfcheck {
		if err := selfCheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	run := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []*workload{w}
	}
	failed := false
	for _, w := range run {
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(os.Stdout)
		fmt.Println(res.jsonLine())
		failed = failed || res.failed > 0
	}
	if failed {
		os.Exit(1)
	}
}
