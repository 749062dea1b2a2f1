// Package server exposes Q over HTTP+JSON: the registration service of
// paper §3 ("Q includes a registration service for new tables and data
// sources: this mechanism can be manually activated by the user ... or
// could ultimately be triggered directly by a Web crawler"), plus keyword
// querying and answer feedback, so crawlers and UIs can drive a long-lived
// Q instance remotely.
//
// Endpoints (all JSON):
//
//	POST   /sources            register a new source           (RegisterRequest)
//	POST   /query              create a persistent view        (QueryRequest)
//	POST   /query?ephemeral=1  answers only — no view is registered
//	GET    /views              list views
//	GET    /views/{id}         one view's ranked answers
//	DELETE /views/{id}         drop a view from the registry
//	POST   /views/{id}/feedback  mark an answer valid/invalid  (FeedbackRequest)
//	GET    /associations       association edges with costs
//	GET    /stats              catalog, graph, query-cache and serving statistics
//
// # Serving limits (admission control)
//
// The server bounds its own resource usage under load instead of letting
// each request size it (Config; every knob has a qserver flag):
//
//   - At most Config.MaxInFlightQueries POST /query requests execute at
//     once. Over-limit queries are shed immediately with 429 Too Many
//     Requests + a Retry-After header — they never start engine work, so
//     an overload cannot pile up goroutines behind the executor.
//   - Writes (POST /sources, POST /views/{id}/feedback) pass a bounded
//     admission queue of depth Config.WriteQueueDepth: admitted writes
//     serialise inside Q on its writer mutex, and once the queue is full
//     further writes are shed with 503 Service Unavailable + Retry-After
//     (backpressure — the client should slow down, the work is durable so
//     429 "try the same request again" semantics would be wrong for
//     non-idempotent registrations).
//   - The engine's view registry holds at most core.Options.MaxViews
//     persistent views (qserver -max-views); at the cap, non-ephemeral
//     POST /query gets 429 until DELETE /views/{id} (or ?ephemeral=1) is
//     used. Ephemeral queries never touch the registry.
//   - A query may carry at most steiner.MaxExactTerminals (20) keywords,
//     the exact Steiner search's limit; more get 400 (core.ErrTooManyKeywords)
//     before any engine work.
//   - POST bodies are capped at Config.MaxBodyBytes via
//     http.MaxBytesReader; oversized bodies get 413.
//   - A write that reaches a closed engine (core.ErrClosed: the shutdown
//     drain timed out while it was queued) gets 503 + Retry-After; it was
//     not applied.
//   - Feedback naming a row the view's current materialisation does not
//     have gets 409 Conflict (not 400): a concurrent weight update can
//     rematerialise the view between the client reading its rows and
//     posting feedback, so the index may simply be stale — re-read the
//     view (the response carries the current X-Q-Epoch) and resubmit.
//     A negative row is malformed whatever the view holds: 400.
//
// Shed/served/in-flight/queue-depth counters are served under "serving"
// on GET /stats.
//
// Answer-carrying responses (POST /query, GET /views/{id}, and the
// feedback echo) include an X-Q-Epoch header: the immutable published
// state generation the answers were computed at. Identical queries at the
// same epoch return byte-identical answers — the engine serves them from
// its epoch-keyed cache — so HTTP clients can key their own caches by
// (epoch, query) and treat entries as immutable; a response with a higher
// epoch signals that a write has been published since.
//
// Answer bodies are rendered without encoding/json (render.go). The rows
// of a materialisation are rendered on each of its first two reads, and
// the materialisation keeps the second read's bytes
// (core.Materialization.AppendRendered); every later read, of any view
// sharing it, copies them behind a hand-written envelope. A result read
// once is never copied. The bytes are those encoding/json would write.
// Every JSON body is built in a pooled buffer and sent with one Write, so
// a value JSON cannot carry (a NaN cost) is answered 500 before any
// status line goes out.
//
// Concurrency model: POST /query is a pure READ of Q. Each query runs
// against the copy-on-write snapshot Q last published — expanding its
// keywords into a private search-graph overlay — so any number of queries
// execute fully concurrently with each other AND with an in-flight
// registration or feedback update; the server takes no lock around them.
// The true writers (POST /sources, POST /views/{id}/feedback) serialise
// inside Q on its writer mutex and commit by atomic snapshot swap, so a
// long registration never blocks a query: a query started before the
// commit answers from the pre-registration world, one started after sees
// the new source. The server keeps no state of its own about views: the
// engine is the one view registry, and view contents swap atomically per
// view, so GET endpoints read them lock-free. Q sizes its worker pools
// itself from GOMAXPROCS, and runs the pipeline of one query serially; no request selects a width, and the ranked answers are
// byte-identical at any width.
//
// A view's wire ID is "v" followed by its engine ID (core.View.ID). The
// engine assigns IDs in creation order, never reuses one, and persists them
// with the view definitions, so an ID names the same view across
// concurrent creations, deletions and restarts of a durable instance.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"qint/internal/core"
	"qint/internal/obs"
	"qint/internal/relstore"
)

// Config bounds the server's resource usage under load. The zero value of
// any field selects its default; see the package comment for the shedding
// contract each limit enforces.
type Config struct {
	// MaxInFlightQueries caps concurrent POST /query executions; further
	// queries are shed with 429 + Retry-After. Default 4×GOMAXPROCS with
	// a floor of 16 (queries block on I/O too — the limit exists to stop
	// unbounded pile-up, not to pin one request per core).
	MaxInFlightQueries int
	// WriteQueueDepth caps queued-or-running writes (POST /sources,
	// feedback); further writes are shed with 503 + Retry-After.
	// Default 8.
	WriteQueueDepth int
	// MaxBodyBytes caps POST request bodies (413 beyond it).
	// Default 8 MiB.
	MaxBodyBytes int64
	// SlowQueryThreshold, when positive, makes the server log every query
	// whose wall time reaches it — one entry with the query text, the
	// X-Q-Trace id and the full stage breakdown — and count it in
	// qint_slow_queries_total. Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
}

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.MaxInFlightQueries <= 0 {
		c.MaxInFlightQueries = max(16, 4*runtime.GOMAXPROCS(0))
	}
	if c.WriteQueueDepth <= 0 {
		c.WriteQueueDepth = 8
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// servingCounters are the admission-control observables served on /stats.
// They are registry-owned (resolved from the engine's obs.Registry in
// NewWith), so the same numbers appear as qint_serving_* families on
// /metrics; registration is idempotent, so a second Server over the same Q
// continues the totals rather than forking them.
type servingCounters struct {
	servedQueries    *obs.Counter // queries admitted and executed
	ephemeralQueries *obs.Counter // subset of served that skipped the registry
	shedQueries      *obs.Counter // 429s from the in-flight limit or view cap
	shedWrites       *obs.Counter // 503s from the write queue
	viewsDeleted     *obs.Counter // DELETE /views/{id} successes
	cappedQueries    *obs.Counter // 400s for core.ErrTooManyKeywords
}

// Server wraps a Q instance and implements http.Handler. It takes no lock:
// Q is snapshot-based (queries are lock-free reads, writers serialise
// internally) and owns the view registry. Admission control
// (queryTokens/writeTokens) sits in front of the handlers — a request that
// cannot take a token is answered and gone before it touches the engine.
type Server struct {
	q   *core.Q
	mux *http.ServeMux

	cfg         Config
	queryTokens chan struct{} // in-flight query admissions
	writeTokens chan struct{} // queued-or-running write admissions
	counters    servingCounters
	slowQueries *obs.Counter
	started     time.Time

	// queryBarrier, when non-nil, is invoked while an admitted query holds
	// its token and before engine work starts. Tests use it to park
	// admitted queries in flight deterministically.
	queryBarrier func()
}

// New wraps q with default serving limits. The caller should have
// registered matchers and initial tables already. Views the instance
// already holds (e.g. restored from a durable snapshot by core.Open) are
// served under their own IDs.
func New(q *core.Q) *Server { return NewWith(q, Config{}) }

// NewWith wraps q with explicit serving limits (zero fields take their
// defaults).
func NewWith(q *core.Q, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		q:           q,
		cfg:         cfg,
		queryTokens: make(chan struct{}, cfg.MaxInFlightQueries),
		writeTokens: make(chan struct{}, cfg.WriteQueueDepth),
		started:     time.Now(),
	}
	s.instrument()
	mux := http.NewServeMux()
	mux.HandleFunc("/sources", s.handleSources)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/views", s.handleViews)
	mux.HandleFunc("/views/", s.handleViewByID)
	mux.HandleFunc("/associations", s.handleAssociations)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// instrument resolves the serving counters from the engine's registry and
// registers the server-level gauges. Counter resolution is idempotent
// (same name → same counter) and gauge callbacks use replacement semantics
// (the latest Server's closure wins), so building a second Server over one
// Q — common in tests and restarts — never double-registers.
func (s *Server) instrument() {
	reg := s.q.Metrics()
	s.counters = servingCounters{
		servedQueries:    reg.Counter("qint_serving_served_queries_total", "Queries admitted and executed."),
		ephemeralQueries: reg.Counter("qint_serving_ephemeral_queries_total", "Served queries that skipped the view registry."),
		shedQueries:      reg.Counter("qint_serving_shed_queries_total", "Queries shed with 429 (in-flight limit or view cap)."),
		shedWrites:       reg.Counter("qint_serving_shed_writes_total", "Writes shed with 503 (admission queue full)."),
		viewsDeleted:     reg.Counter("qint_serving_views_deleted_total", "Successful DELETE /views/{id} requests."),
		cappedQueries:    reg.Counter("qint_serving_capped_queries_total", "Queries refused with 400 for carrying more keywords than the exact Steiner search accepts."),
	}
	s.slowQueries = reg.Counter("qint_slow_queries_total", "Queries whose wall time reached the slow-query threshold.")
	reg.GaugeFunc("qint_serving_inflight_queries", "Queries currently holding an admission token.", func() float64 {
		return float64(len(s.queryTokens))
	})
	reg.GaugeFunc("qint_serving_queued_writes", "Writes currently queued or running.", func() float64 {
		return float64(len(s.writeTokens))
	})
	reg.GaugeFunc("qint_uptime_seconds", "Seconds since this server was constructed.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	b := buildInfo()
	reg.GaugeFunc("qint_build_info", "Build information; the value is always 1.", func() float64 { return 1 },
		obs.Label{Name: "go_version", Value: b.GoVersion},
		obs.Label{Name: "module", Value: b.Module},
		obs.Label{Name: "revision", Value: b.Revision})
}

// handleMetrics serves the registry in Prometheus text exposition format
// 0.0.4 — engine and serving families together, since both register into
// the engine's registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.q.Metrics().WritePrometheus(w); err != nil {
		logf("server: writing /metrics: %v", err)
	}
}

// BuildInfo identifies the running binary on /stats and as the
// qint_build_info labels.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module"`
	Revision  string `json:"revision"`
}

// buildInfo reads the binary's embedded build metadata. Fields the build
// did not stamp (e.g. no VCS info under `go test`) come back "unknown".
func buildInfo() BuildInfo {
	b := BuildInfo{GoVersion: runtime.Version(), Module: "unknown", Revision: "unknown"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if bi.Main.Path != "" {
		b.Module = bi.Main.Path
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			b.Revision = kv.Value
		}
	}
	return b
}

// admitWrite takes one write-queue slot without blocking. The returned
// release must be called when the write finishes; ok=false means the queue
// is full and the caller should shed.
func (s *Server) admitWrite() (release func(), ok bool) {
	select {
	case s.writeTokens <- struct{}{}:
		return func() { <-s.writeTokens }, true
	default:
		return nil, false
	}
}

// shedWrite answers a write that found the admission queue full: 503 +
// Retry-After, counted. 503 (not 429) because the correct client reaction
// is backoff, and retrying a non-idempotent registration verbatim is the
// client's call to make once the queue drains.
func (s *Server) shedWrite(w http.ResponseWriter) {
	s.counters.shedWrites.Add(1)
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable,
		"write queue full (depth %d); retry after backoff", s.cfg.WriteQueueDepth)
}

// engineClosed answers a write the engine refused because it has been
// closed (the server is shutting down): 503 + Retry-After, since the write
// was not applied and a restarted server will take it.
func engineClosed(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "%v; retry after restart", core.ErrClosed)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// TableSpec is the wire form of one table in a registration request.
type TableSpec struct {
	Name        string                `json:"name"`
	Attributes  []string              `json:"attributes"`
	ForeignKeys []relstore.ForeignKey `json:"foreign_keys,omitempty"`
	Rows        [][]string            `json:"rows"`
}

// RegisterRequest registers one new source.
type RegisterRequest struct {
	Source   string      `json:"source"`
	Tables   []TableSpec `json:"tables"`
	Strategy string      `json:"strategy"` // exhaustive | viewbased | preferential
}

// RegisterResponse reports the outcome.
type RegisterResponse struct {
	Source          string             `json:"source"`
	NewRelations    []string           `json:"new_relations"`
	TargetsCompared []string           `json:"targets_compared"`
	AttrComparisons int                `json:"attr_comparisons"`
	Alignments      map[string]float64 `json:"alignments"`
}

// QueryRequest creates a view.
type QueryRequest struct {
	Q string `json:"q"`
}

// ViewSummary describes one persistent view.
type ViewSummary struct {
	ID       string   `json:"id"`
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
	Alpha    float64  `json:"alpha"`
	// Answers is how many rows the view holds: min(K, rows its branch
	// queries yield), since a view executes only as far as its top K.
	Answers int `json:"answers"`
}

// ViewAnswers carries a view's ranked rows. It is the wire form of every
// answer body; writeAnswers appends the bytes encoding/json would write
// for it, without building one.
type ViewAnswers struct {
	ViewSummary
	Columns []string    `json:"columns"`
	Rows    []AnswerRow `json:"rows"`
}

// AnswerRow is one ranked tuple.
type AnswerRow struct {
	Values     []string `json:"values"`
	Cost       float64  `json:"cost"`
	Provenance string   `json:"provenance"`
}

// FeedbackRequest annotates one answer of a view.
type FeedbackRequest struct {
	Row  int    `json:"row"`
	Kind string `json:"kind"` // valid | invalid
}

func (s *Server) handleSources(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	release, ok := s.admitWrite()
	if !ok {
		s.shedWrite(w)
		return
	}
	defer release()
	var req RegisterRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Source == "" || len(req.Tables) == 0 {
		httpError(w, http.StatusBadRequest, "source and tables required")
		return
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tables := make([]*relstore.Table, 0, len(req.Tables))
	for _, ts := range req.Tables {
		rel := &relstore.Relation{Source: req.Source, Name: ts.Name, ForeignKeys: ts.ForeignKeys}
		for _, a := range ts.Attributes {
			rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: a})
		}
		t, err := relstore.NewTable(rel, ts.Rows)
		if err != nil {
			httpError(w, http.StatusBadRequest, "table %s: %v", ts.Name, err)
			return
		}
		tables = append(tables, t)
	}

	// Writers serialise inside Q; queries keep flowing against the previous
	// snapshot until the registration commits.
	report, err := s.q.RegisterSource(tables, strategy)
	if errors.Is(err, core.ErrClosed) {
		engineClosed(w)
		return
	}
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, RegisterResponse{
		Source:          report.Source,
		NewRelations:    report.NewRelations,
		TargetsCompared: report.TargetsCompared,
		AttrComparisons: report.AttrComparisons,
		Alignments:      report.AlignmentsByPair,
	})
}

func parseStrategy(s string) (core.AlignStrategy, error) {
	switch strings.ToLower(s) {
	case "", "viewbased", "view-based":
		return core.ViewBased, nil
	case "exhaustive":
		return core.Exhaustive, nil
	case "preferential":
		return core.Preferential, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Admission: take an in-flight slot or shed NOW, before any engine
	// work — an overload turns into fast 429s, not a goroutine pile-up.
	select {
	case s.queryTokens <- struct{}{}:
		defer func() { <-s.queryTokens }()
	default:
		s.counters.shedQueries.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"query admission limit reached (%d in flight); retry after backoff",
			s.cfg.MaxInFlightQueries)
		return
	}
	if s.queryBarrier != nil {
		s.queryBarrier()
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// The query is a lock-free read of Q's published snapshot; repeated
	// queries answer from the engine's epoch-keyed materialisation cache.
	// An ephemeral view is never registered, so ephemeral traffic cannot
	// grow the registry.
	ephemeral := isTruthy(r.URL.Query().Get("ephemeral"))
	tr := obs.NewTrace()
	v, err := s.q.Query(core.Request{Keywords: core.ParseKeywords(req.Q), Ephemeral: ephemeral, Trace: tr})
	s.observeQuery(w, req.Q, tr)
	if errors.Is(err, core.ErrViewLimit) {
		s.counters.shedQueries.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"view registry full (max %d); use ?ephemeral=1 or DELETE /views/{id}", s.q.Options().MaxViews)
		return
	}
	if errors.Is(err, core.ErrTooManyKeywords) {
		s.counters.cappedQueries.Inc()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.counters.servedQueries.Add(1)
	status := http.StatusCreated
	if ephemeral {
		s.counters.ephemeralQueries.Add(1)
		status = http.StatusOK
	}
	m := v.Current()
	setEpochHeader(w, m)
	writeAnswers(w, status, v, m)
}

// observeQuery stamps the response with the query's trace id (X-Q-Trace —
// the handle a client quotes when reporting a slow request) and feeds the
// slow-query log: wall time at or over the threshold logs the full stage
// breakdown and bumps qint_slow_queries_total.
func (s *Server) observeQuery(w http.ResponseWriter, query string, tr *obs.Trace) {
	w.Header().Set("X-Q-Trace", tr.ID())
	if th := s.cfg.SlowQueryThreshold; th > 0 && tr.Wall() >= th {
		s.slowQueries.Inc()
		logf("server: slow query %q (wall %v >= threshold %v)\n%s", query, tr.Wall(), th, tr.String())
	}
}

// isTruthy parses boolean-ish query parameters (1/true/yes).
func isTruthy(v string) bool {
	switch strings.ToLower(v) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// decodeBody decodes the request's JSON body, read through
// http.MaxBytesReader, into dst. On failure it answers the request itself —
// 413 when the body exceeds MaxBodyBytes, 400 when it is not the JSON dst
// expects — and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(dst)
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &mbe):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
	default:
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
	}
	return false
}

// setEpochHeader stamps the response with the published-state generation
// the answers were computed at. Epochs identify immutable generations, so
// clients can treat (epoch, query) as an immutable cache key of their own —
// the same contract the engine's internal cache is built on; a response
// carrying a new epoch is the signal that previous entries are stale.
func setEpochHeader(w http.ResponseWriter, m core.Materialization) {
	w.Header().Set("X-Q-Epoch", strconv.FormatUint(m.Epoch, 10))
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	views := s.q.Views()
	out := make([]ViewSummary, len(views))
	for i, v := range views {
		out[i] = summaryOfMat(v, v.Current())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleViewByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/views/")
	parts := strings.Split(rest, "/")
	// A trailing slash (/views/v0/) is the same resource as /views/v0,
	// not an "unknown view endpoint".
	if len(parts) > 1 && parts[len(parts)-1] == "" {
		parts = parts[:len(parts)-1]
	}
	id, ok := parseViewID(parts[0])
	var v *core.View
	if ok {
		v = s.q.View(id)
	}
	if v == nil {
		httpError(w, http.StatusNotFound, "no view %s", parts[0])
		return
	}

	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		m := v.Current()
		setEpochHeader(w, m)
		writeAnswers(w, http.StatusOK, v, m)
	case len(parts) == 1 && r.Method == http.MethodDelete:
		// Of concurrent DELETEs of one view, only the one that actually
		// dropped it answers 204.
		if !s.q.DropView(id) {
			httpError(w, http.StatusNotFound, "no view %s", parts[0])
			return
		}
		s.counters.viewsDeleted.Add(1)
		w.WriteHeader(http.StatusNoContent)
	case len(parts) == 2 && parts[1] == "feedback" && r.Method == http.MethodPost:
		release, admitted := s.admitWrite()
		if !admitted {
			s.shedWrite(w)
			return
		}
		defer release()
		var req FeedbackRequest
		if !s.decodeBody(w, r, &req) {
			return
		}
		kind := core.FeedbackValid
		switch strings.ToLower(req.Kind) {
		case "valid":
		case "invalid":
			kind = core.FeedbackInvalid
		default:
			httpError(w, http.StatusBadRequest, "kind must be valid or invalid")
			return
		}
		if req.Row < 0 {
			httpError(w, http.StatusBadRequest, "row must be non-negative, got %d", req.Row)
			return
		}
		if err := s.q.FeedbackRow(v, req.Row, kind); err != nil {
			if errors.Is(err, core.ErrClosed) {
				engineClosed(w)
				return
			}
			if errors.Is(err, core.ErrRowOutOfRange) {
				// Not (necessarily) a malformed request: a concurrent
				// weight update can rematerialise the view between the
				// client reading its rows and posting feedback. Tell the
				// client its read is stale so it re-reads and resubmits.
				setEpochHeader(w, v.Current())
				httpError(w, http.StatusConflict, "%v; re-read the view and resubmit", err)
				return
			}
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		m := v.Current()
		setEpochHeader(w, m)
		writeAnswers(w, http.StatusOK, v, m)
	default:
		httpError(w, http.StatusNotFound, "unknown view endpoint")
	}
}

// parseViewID reads a wire view ID ("v" + the engine ID). Only the
// canonical form parses, so "v01" does not alias "v1".
func parseViewID(s string) (int64, bool) {
	id, err := strconv.ParseInt(strings.TrimPrefix(s, "v"), 10, 64)
	return id, err == nil && s == viewID(id)
}

// viewID renders an engine view ID on the wire; an ephemeral view (ID -1)
// has none.
func viewID(id int64) string {
	if id < 0 {
		return ""
	}
	return "v" + strconv.FormatInt(id, 10)
}

// summaryOfMat summarises one already-loaded materialisation of the view
// (callers take it with a single atomic load via Current — no lock needed,
// and α always matches the rows counted even under a concurrent refresh).
func summaryOfMat(v *core.View, m core.Materialization) ViewSummary {
	answers := 0
	if m.Result != nil {
		answers = len(m.Result.Rows)
	}
	return ViewSummary{
		ID:       viewID(v.ID),
		Keywords: v.Keywords,
		K:        v.K,
		Alpha:    m.Alpha,
		Answers:  answers,
	}
}

// AssociationInfo is the wire form of one association edge.
type AssociationInfo struct {
	A    string  `json:"a"`
	B    string  `json:"b"`
	Cost float64 `json:"cost"`
}

func (s *Server) handleAssociations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// Read the published graph snapshot — no lock, coherent by construction.
	list := s.q.CurrentGraph().AssociationList()
	out := make([]AssociationInfo, len(list))
	for i, a := range list {
		out[i] = AssociationInfo{A: a.A.String(), B: a.B.String(), Cost: a.Cost}
	}
	writeJSON(w, http.StatusOK, out)
}

// StatsResponse summarises the running instance. Epoch is the currently
// published state generation; Cache carries the serving-layer query-cache
// counters (hits, misses, computes, coalesced, evictions, entries, live
// epochs — per cache); Plan carries the join planner's accumulated
// counter (branch queries planned).
type StatsResponse struct {
	Relations  int             `json:"relations"`
	Attributes int             `json:"attributes"`
	Sources    []string        `json:"sources"`
	Nodes      map[string]int  `json:"nodes"`
	Edges      map[string]int  `json:"edges"`
	Views      int             `json:"views"`
	Epoch      uint64          `json:"epoch"`
	EpochAge   float64         `json:"epoch_age_seconds"`
	Uptime     float64         `json:"uptime_seconds"`
	Build      BuildInfo       `json:"build"`
	Cache      core.CacheStats `json:"cache"`
	Plan       core.PlanStats  `json:"plan"`
	Serving    ServingStats    `json:"serving"`
}

// ServingStats reports the admission-control layer: configured limits,
// instantaneous gauges (in-flight queries, queued writes) and cumulative
// shed/served counters. A load driver reads ShedQueries/ShedWrites to
// know how much of its offered load the server refused.
type ServingStats struct {
	InFlightQueries    int   `json:"inflight_queries"`
	MaxInFlightQueries int   `json:"max_inflight_queries"`
	QueuedWrites       int   `json:"queued_writes"`
	WriteQueueDepth    int   `json:"write_queue_depth"`
	ServedQueries      int64 `json:"served_queries"`
	EphemeralQueries   int64 `json:"ephemeral_queries"`
	ShedQueries        int64 `json:"shed_queries"`
	ShedWrites         int64 `json:"shed_writes"`
	ViewsDeleted       int64 `json:"views_deleted"`
	MaxViews           int   `json:"max_views"`
	MaxBodyBytes       int64 `json:"max_body_bytes"`
}

// ServingStats samples the admission-control counters.
func (s *Server) ServingStats() ServingStats {
	return ServingStats{
		InFlightQueries:    len(s.queryTokens),
		MaxInFlightQueries: s.cfg.MaxInFlightQueries,
		QueuedWrites:       len(s.writeTokens),
		WriteQueueDepth:    s.cfg.WriteQueueDepth,
		ServedQueries:      s.counters.servedQueries.Load(),
		EphemeralQueries:   s.counters.ephemeralQueries.Load(),
		ShedQueries:        s.counters.shedQueries.Load(),
		ShedWrites:         s.counters.shedWrites.Load(),
		ViewsDeleted:       s.counters.viewsDeleted.Load(),
		MaxViews:           s.q.Options().MaxViews,
		MaxBodyBytes:       s.cfg.MaxBodyBytes,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	graph := s.q.CurrentGraph()
	cat := s.q.CurrentCatalog()
	sum := graph.Summary()
	resp := StatsResponse{
		Relations:  cat.NumRelations(),
		Attributes: cat.NumAttributes(),
		Sources:    cat.Sources(),
		Nodes: map[string]int{
			"relation": sum.Relations, "attribute": sum.Attributes,
			"value": sum.Values, "keyword": sum.Keywords,
		},
		Edges:   make(map[string]int, len(sum.ByEdgeKind)),
		Views:   len(s.q.Views()),
		Epoch:   s.q.Epoch(),
		Uptime:  time.Since(s.started).Seconds(),
		Build:   buildInfo(),
		Cache:   s.q.CacheStats(),
		Plan:    s.q.PlanStats(),
		Serving: s.ServingStats(),
	}
	if at := s.q.EpochTime(); !at.IsZero() {
		resp.EpochAge = time.Since(at).Seconds()
	}
	for k, n := range sum.ByEdgeKind {
		resp.Edges[k.String()] = n
	}
	writeJSON(w, http.StatusOK, resp)
}

// logf is the server's error logger; tests swap it to assert (or silence)
// logging.
var logf = log.Printf

// writeJSON sends v as JSON. The body is encoded before the status line
// goes out, so a value encoding/json refuses (a NaN, say) is answered 500
// with a JSON error rather than a success with an empty body.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	s := getScratch()
	defer putScratch(s)
	if err := json.NewEncoder(s).Encode(v); err != nil {
		logf("server: encoding %T response: %v", v, err)
		httpError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	send(w, status, s.b)
}

// send writes one JSON response: headers, status and the whole body in a
// single Write.
func send(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// Usually a client that hung up mid-response; the status line
		// already went out, so logging is all that's left.
		logf("server: writing response: %v", err)
	}
}

func httpError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
