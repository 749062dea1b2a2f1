package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/obs"
)

// newObsServer builds a test server over a fresh InterPro-GO engine with
// an explicit Config, returning both ends so tests can reach the engine.
func newObsServer(t *testing.T, cfg Config) (*httptest.Server, *core.Q) {
	t.Helper()
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs()
	ts := httptest.NewServer(NewWith(q, cfg))
	t.Cleanup(ts.Close)
	return ts, q
}

func scrape(t *testing.T, base string) (*obs.Exposition, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	return exp, resp
}

// TestMetricsEndpoint is the exposition smoke: after one served query,
// GET /metrics must return valid Prometheus text carrying the engine and
// serving families with values that reflect the request.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObsServer(t, Config{})

	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	exp, mresp := scrape(t, ts.URL)
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	required := []string{
		// Query pipeline.
		"qint_queries_total", "qint_query_errors_total", "qint_query_duration_seconds",
		"qint_query_stage_seconds_total", "qint_query_stage_ops_total",
		// Alignment, planner, executor.
		"qint_align_base_matcher_calls_total", "qint_align_attr_comparisons_total",
		"qint_plan_branches_planned_total", "qint_plan_explain_errors_total",
		"qint_topk_branches_skipped_total", "qint_exec_branches_total", "qint_exec_rows_total",
		// Steiner search.
		"qint_steiner_pops_total", "qint_steiner_pruned_total", "qint_steiner_bound_pruned_total",
		"qint_steiner_truncated_total", "qint_steiner_limited_total", "qint_steiner_limit_reruns_total",
		// Caches.
		"qint_cache_hits_total", "qint_cache_misses_total", "qint_cache_evictions_total",
		"qint_cache_computes_total", "qint_cache_coalesced_total",
		// State and serving layer.
		"qint_epoch", "qint_epoch_age_seconds", "qint_views",
		"qint_serving_served_queries_total", "qint_serving_shed_queries_total",
		"qint_serving_inflight_queries", "qint_serving_queued_writes",
		"qint_slow_queries_total", "qint_uptime_seconds", "qint_build_info",
	}
	if missing := exp.MissingFamilies(required); len(missing) != 0 {
		t.Errorf("exposition missing families: %v", missing)
	}
	if v, _ := exp.Value("qint_serving_served_queries_total"); v != 1 {
		t.Errorf("served queries = %v, want 1", v)
	}
	if v, _ := exp.Value("qint_queries_total"); v != 1 {
		t.Errorf("engine queries = %v, want 1", v)
	}
	if v, _ := exp.Value("qint_query_duration_seconds_count"); v != 1 {
		t.Errorf("duration summary count = %v, want 1", v)
	}
	// The served query's materialisation executed branches and emitted rows.
	if v, _ := exp.Value("qint_exec_branches_total"); v <= 0 {
		t.Errorf("executed branches = %v, want > 0", v)
	}
	if v, _ := exp.Value("qint_exec_rows_total"); v <= 0 {
		t.Errorf("executed rows = %v, want > 0", v)
	}

	if resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /metrics status = %d, want 405", resp.StatusCode)
		}
	}
}

// TestQueryTraceHeader checks every query response carries its trace id.
func TestQueryTraceHeader(t *testing.T) {
	ts, _ := newObsServer(t, Config{})
	for _, path := range []string{"/query", "/query?ephemeral=1"} {
		resp := postJSON(t, ts.URL+path, QueryRequest{Q: "'GO:0001000' 'fam_0'"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s status = %d", path, resp.StatusCode)
		}
		if id := resp.Header.Get("X-Q-Trace"); id == "" {
			t.Errorf("POST %s: no X-Q-Trace header", path)
		}
	}
}

// TestSlowQueryLog drops the threshold to 1ns so every query is slow, and
// checks the log line carries the query, the trace id and the per-stage
// breakdown.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	orig := logf
	logf = func(format string, args ...interface{}) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	defer func() { logf = orig }()

	ts, _ := newObsServer(t, Config{SlowQueryThreshold: time.Nanosecond})
	resp := postJSON(t, ts.URL+"/query?ephemeral=1", QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	traceID := resp.Header.Get("X-Q-Trace")
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	var slow string
	for _, l := range logs {
		if strings.Contains(l, "slow query") {
			slow = l
			break
		}
	}
	if slow == "" {
		t.Fatalf("no slow-query log line; logs: %v", logs)
	}
	for _, want := range []string{"'GO:0001000' 'fam_0'", traceID, "expand", "steiner"} {
		if !strings.Contains(slow, want) {
			t.Errorf("slow-query line missing %q:\n%s", want, slow)
		}
	}

	exp, _ := scrape(t, ts.URL)
	if v, _ := exp.Value("qint_slow_queries_total"); v != 1 {
		t.Errorf("qint_slow_queries_total = %v, want 1", v)
	}
}

// TestStatsUptimeAndBuild checks the /stats additions: uptime, epoch age
// and build identification.
func TestStatsUptimeAndBuild(t *testing.T) {
	ts, _ := newObsServer(t, Config{})
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	decode(t, resp, &st)
	if st.Uptime <= 0 {
		t.Errorf("uptime = %v, want > 0", st.Uptime)
	}
	if st.EpochAge <= 0 {
		t.Errorf("epoch age = %v, want > 0", st.EpochAge)
	}
	if st.Build.GoVersion == "" || st.Build.Module == "" {
		t.Errorf("build info incomplete: %+v", st.Build)
	}
}

// TestConcurrentScrapeWhileQuerying hammers /metrics, /stats and /query
// together — the lock-free-registry contract under -race, and exposition
// must stay parseable mid-load.
func TestConcurrentScrapeWhileQuerying(t *testing.T) {
	ts, _ := newObsServer(t, Config{})
	const rounds = 20
	var wg sync.WaitGroup
	errc := make(chan error, 3*rounds)
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			body := `{"q":"'GO:0001000' 'fam_0'"}`
			for i := 0; i < rounds; i++ {
				resp, err := http.Post(ts.URL+"/query?ephemeral=1", "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("query status %d", resp.StatusCode)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errc <- err
					continue
				}
				_, perr := obs.ParseExposition(resp.Body)
				resp.Body.Close()
				if perr != nil {
					errc <- perr
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				resp, err := http.Get(ts.URL + "/stats")
				if err != nil {
					errc <- err
					continue
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
