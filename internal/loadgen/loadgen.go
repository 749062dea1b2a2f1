// Package loadgen is an open-loop HTTP load driver for the qserver
// serving path: it fires a Zipfian-skewed stream of keyword queries (with
// an optional mix of source registrations and feedback writes) at a target
// QPS and reports coordinated-omission-safe latency percentiles.
//
// Open-loop means the arrival schedule is fixed up front — operation i is
// due at start + i/QPS — and latency is measured from that SCHEDULED send
// time, not from when a worker actually got around to writing the request.
// A server that stalls therefore shows the stall in every queued request's
// latency (the coordinated-omission correction HdrHistogram's designers
// argue for), instead of the closed-loop lie where a stalled client simply
// stops issuing requests and the stall vanishes from the numbers.
//
// Latencies land in an HdrHistogram-style log-linear histogram (~1.6%
// relative error, lock-free recording); the Report separates served (2xx)
// latency from shed traffic (429 admission, 503 backpressure) and counts
// X-Q-Epoch churn so a run shows how many state generations it spanned.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qint/internal/obs"
)

// Op kinds in the generated mix.
const (
	opQuery = iota
	opRegister
	opFeedback
)

// Config parameterises one load run.
type Config struct {
	// BaseURL is the qserver root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// QPS is the target arrival rate of the open-loop schedule.
	QPS float64
	// Duration is the span of the schedule; Scheduled = QPS × Duration.
	Duration time.Duration
	// Workers is the number of concurrent senders draining the schedule
	// (default 64). Workers bound in-flight requests, not the schedule:
	// when all are busy, due operations queue and their wait is charged
	// to latency.
	Workers int
	// Queries is the keyword-query vocabulary; drawn Zipfian by rank.
	Queries []string
	// Skew is the Zipf exponent s over Queries (s>1; <=1 means uniform).
	Skew float64
	// RegisterFraction and FeedbackFraction divert that share of
	// operations to POST /sources (a tiny unique table each) and POST
	// /views/{id}/feedback (against a view created at startup).
	RegisterFraction, FeedbackFraction float64
	// Ephemeral sends queries with ?ephemeral=1 so the run does not grow
	// the server's view registry. Default true (Run flips a zero Config
	// to ephemeral; set NoEphemeral to force persistent queries).
	NoEphemeral bool
	// Timeout caps one HTTP exchange (default 10s).
	Timeout time.Duration
	// Seed fixes the op-mix and Zipf draw (default 1).
	Seed int64
}

// Report is the outcome of one run, both the machine-readable
// BENCH_qload.json artifact and the source of the human table.
type Report struct {
	// Echo of the run parameters.
	BaseURL   string  `json:"base_url"`
	TargetQPS float64 `json:"target_qps"`
	Skew      float64 `json:"skew"`
	Workers   int     `json:"workers"`
	Ephemeral bool    `json:"ephemeral"`

	// Volume. Scheduled counts every planned arrival; Completed is the
	// subset whose HTTP exchange finished (any status); achieved QPS is
	// Completed over the wall-clock span.
	Scheduled   int64         `json:"scheduled"`
	Completed   int64         `json:"completed"`
	WallClock   time.Duration `json:"wall_clock_ns"`
	AchievedQPS float64       `json:"achieved_qps"`

	// Outcomes. Served = 2xx. Shed429/Shed503 are the admission-control
	// refusals; Err4xx counts other client errors, Err5xx server errors,
	// NetErrors transport failures/timeouts.
	Served    int64            `json:"served"`
	Shed429   int64            `json:"shed_429"`
	Shed503   int64            `json:"shed_503"`
	Err4xx    int64            `json:"err_4xx"`
	Err5xx    int64            `json:"err_5xx"`
	NetErrors int64            `json:"net_errors"`
	ByStatus  map[string]int64 `json:"by_status"`

	// Served-request latency from the scheduled send time
	// (coordinated-omission-safe).
	P50  time.Duration `json:"served_p50_ns"`
	P90  time.Duration `json:"served_p90_ns"`
	P99  time.Duration `json:"served_p99_ns"`
	P999 time.Duration `json:"served_p999_ns"`
	Max  time.Duration `json:"served_max_ns"`
	Mean time.Duration `json:"served_mean_ns"`

	// All-completed latency (includes shed responses, which should be
	// fast — a shed path slower than the served path is a server bug).
	AllP50 time.Duration `json:"all_p50_ns"`
	AllP99 time.Duration `json:"all_p99_ns"`

	// X-Q-Epoch churn: distinct published generations observed, the
	// first/last epoch, and how many times the observed epoch changed.
	EpochsSeen       int    `json:"epochs_seen"`
	FirstEpoch       uint64 `json:"first_epoch"`
	LastEpoch        uint64 `json:"last_epoch"`
	EpochTransitions int64  `json:"epoch_transitions"`

	// Post-run /metrics scrape (AttachMetrics): scrape shape, required
	// families that were absent, and per-family totals — the server-side
	// view of the run, stored next to the client-side latencies.
	MetricsScraped        bool               `json:"metrics_scraped"`
	MetricFamilies        int                `json:"metric_families,omitempty"`
	MetricSamples         int                `json:"metric_samples,omitempty"`
	MissingMetricFamilies []string           `json:"missing_metric_families,omitempty"`
	MetricTotals          map[string]float64 `json:"metric_totals,omitempty"`
}

// op is one precomputed schedule entry.
type op struct {
	kind  uint8
	query int32 // index into Config.Queries for opQuery
}

// epochTracker folds X-Q-Epoch headers into churn statistics.
type epochTracker struct {
	mu          sync.Mutex
	seen        map[uint64]struct{}
	last        uint64
	haveLast    bool
	first       uint64
	transitions int64
}

func (e *epochTracker) observe(raw string) {
	if raw == "" {
		return
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seen == nil {
		e.seen = make(map[uint64]struct{})
	}
	e.seen[v] = struct{}{}
	if !e.haveLast {
		e.first, e.last, e.haveLast = v, v, true
		return
	}
	if v != e.last {
		e.transitions++
		e.last = v
	}
}

// Run executes the configured load against a live server and returns the
// report. The schedule is drawn up front from Seed, so two runs with the
// same Config offer byte-identical traffic.
func Run(cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.QPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: QPS and Duration must be positive")
	}
	if len(cfg.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: empty query vocabulary")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	base := strings.TrimRight(cfg.BaseURL, "/")

	total := int(cfg.QPS * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / cfg.QPS)

	// Precompute the op mix and query ranks: one rng, deterministic.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Skew > 1 && len(cfg.Queries) > 1 {
		zipf = rand.NewZipf(rng, cfg.Skew, 1, uint64(len(cfg.Queries)-1))
	}
	ops := make([]op, total)
	for i := range ops {
		r := rng.Float64()
		switch {
		case r < cfg.RegisterFraction:
			ops[i] = op{kind: opRegister}
		case r < cfg.RegisterFraction+cfg.FeedbackFraction:
			ops[i] = op{kind: opFeedback}
		default:
			qi := int32(0)
			if zipf != nil {
				qi = int32(zipf.Uint64())
			} else if len(cfg.Queries) > 1 {
				qi = int32(rng.Intn(len(cfg.Queries)))
			}
			ops[i] = op{kind: opQuery, query: qi}
		}
	}

	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers,
			MaxIdleConnsPerHost: cfg.Workers,
		},
	}
	defer client.CloseIdleConnections()

	// Feedback needs a persistent target view; create it before the clock
	// starts. Row 0 of the hottest query's answers is the target.
	feedbackPath := ""
	if cfg.FeedbackFraction > 0 {
		id, err := createFeedbackView(client, base, cfg.Queries[0])
		if err != nil {
			return nil, fmt.Errorf("loadgen: creating feedback target view: %w", err)
		}
		feedbackPath = "/views/" + id + "/feedback"
	}

	queryPath := "/query"
	params := make([]string, 0, 2)
	if !cfg.NoEphemeral {
		params = append(params, "ephemeral=1")
	}
	if len(params) > 0 {
		queryPath += "?" + strings.Join(params, "&")
	}

	var (
		servedHist, allHist obs.Histogram
		served, completed   atomic.Int64
		shed429, shed503    atomic.Int64
		err4xx, err5xx      atomic.Int64
		netErrors           atomic.Int64
		regSeq              atomic.Int64
		epochs              epochTracker
		statusMu            sync.Mutex
		byStatus            = make(map[string]int64)
	)
	countStatus := func(code int) {
		statusMu.Lock()
		byStatus[strconv.Itoa(code)]++
		statusMu.Unlock()
	}

	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := ops[i]
				var (
					path string
					body []byte
				)
				switch o.kind {
				case opRegister:
					path = "/sources"
					body = registerBody(cfg.Seed, regSeq.Add(1))
				case opFeedback:
					path = feedbackPath
					body = []byte(`{"row":0,"kind":"valid"}`)
				default:
					path = queryPath
					b, _ := json.Marshal(map[string]string{"q": cfg.Queries[o.query]})
					body = b
				}
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
				// Latency from the SCHEDULED send time: a backlogged or
				// stalled server is charged for every queued request.
				lat := time.Since(due)
				if err != nil {
					netErrors.Add(1)
					completed.Add(1)
					allHist.Record(lat)
					continue
				}
				drain(resp)
				completed.Add(1)
				allHist.Record(lat)
				countStatus(resp.StatusCode)
				epochs.observe(resp.Header.Get("X-Q-Epoch"))
				switch {
				case resp.StatusCode >= 200 && resp.StatusCode < 300:
					served.Add(1)
					servedHist.Record(lat)
				case resp.StatusCode == http.StatusTooManyRequests:
					shed429.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					shed503.Add(1)
				case resp.StatusCode >= 500:
					err5xx.Add(1)
				default:
					err4xx.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{
		BaseURL:   cfg.BaseURL,
		TargetQPS: cfg.QPS,
		Skew:      cfg.Skew,
		Workers:   cfg.Workers,
		Ephemeral: !cfg.NoEphemeral,

		Scheduled:   int64(total),
		Completed:   completed.Load(),
		WallClock:   wall,
		AchievedQPS: float64(completed.Load()) / wall.Seconds(),

		Served:    served.Load(),
		Shed429:   shed429.Load(),
		Shed503:   shed503.Load(),
		Err4xx:    err4xx.Load(),
		Err5xx:    err5xx.Load(),
		NetErrors: netErrors.Load(),
		ByStatus:  byStatus,

		P50:  servedHist.Quantile(0.50),
		P90:  servedHist.Quantile(0.90),
		P99:  servedHist.Quantile(0.99),
		P999: servedHist.Quantile(0.999),
		Max:  servedHist.Max(),
		Mean: servedHist.Mean(),

		AllP50: allHist.Quantile(0.50),
		AllP99: allHist.Quantile(0.99),

		EpochsSeen:       len(epochs.seen),
		FirstEpoch:       epochs.first,
		LastEpoch:        epochs.last,
		EpochTransitions: epochs.transitions,
	}
	return rep, nil
}

// createFeedbackView creates one persistent view to aim feedback writes at
// and returns its wire id.
func createFeedbackView(client *http.Client, base, query string) (string, error) {
	b, _ := json.Marshal(map[string]string{"q": query})
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /query: status %d", resp.StatusCode)
	}
	var out struct {
		ID   string            `json:"id"`
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if len(out.Rows) == 0 {
		return "", fmt.Errorf("feedback target query %q returned no rows", query)
	}
	return out.ID, nil
}

// registerBody builds a tiny unique single-table registration so repeated
// register ops never collide on source name.
func registerBody(seed, seq int64) []byte {
	src := fmt.Sprintf("load_%d_%d", seed, seq)
	b, _ := json.Marshal(map[string]any{
		"source": src,
		"tables": []map[string]any{{
			"name":       "probe",
			"attributes": []string{"probe_id", "label"},
			"rows":       [][]string{{fmt.Sprintf("LP%08d", seq), "load probe"}},
		}},
		"strategy": "preferential",
	})
	return b
}

// drain consumes and closes a response body so connections are reused.
func drain(resp *http.Response) {
	const limit = 1 << 20
	buf := make([]byte, 4096)
	var n int64
	for n < limit {
		m, err := resp.Body.Read(buf)
		n += int64(m)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
}

// WriteFile writes the report as indented JSON (the BENCH_qload.json
// artifact) via a plain create-then-write — the artifact is not a durable
// store, CI uploads it immediately.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Table renders the human-readable run summary.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "qload: %s  target %.0f qps  achieved %.1f qps  wall %v\n",
		r.BaseURL, r.TargetQPS, r.AchievedQPS, r.WallClock.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-12s %10s %10s %10s %10s %10s %10s\n",
		"", "count", "p50", "p90", "p99", "p999", "max")
	fmt.Fprintf(&sb, "%-12s %10d %10v %10v %10v %10v %10v\n",
		"served", r.Served,
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.P999.Round(time.Microsecond),
		r.Max.Round(time.Microsecond))
	fmt.Fprintf(&sb, "%-12s %10d %10v %10s %10v\n",
		"all", r.Completed,
		r.AllP50.Round(time.Microsecond), "", r.AllP99.Round(time.Microsecond))
	fmt.Fprintf(&sb, "shed: %d x 429, %d x 503   errors: %d x 4xx, %d x 5xx, %d transport\n",
		r.Shed429, r.Shed503, r.Err4xx, r.Err5xx, r.NetErrors)
	if len(r.ByStatus) > 0 {
		codes := make([]string, 0, len(r.ByStatus))
		for c := range r.ByStatus {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		fmt.Fprintf(&sb, "status:")
		for _, c := range codes {
			fmt.Fprintf(&sb, " %s=%d", c, r.ByStatus[c])
		}
		fmt.Fprintln(&sb)
	}
	fmt.Fprintf(&sb, "epochs: %d seen (%d -> %d), %d transitions\n",
		r.EpochsSeen, r.FirstEpoch, r.LastEpoch, r.EpochTransitions)
	r.metricsTable(&sb)
	return sb.String()
}
