package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/obs"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs()
	ts := httptest.NewServer(New(q))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode(t *testing.T, resp *http.Response, out interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestQueryAndViews(t *testing.T) {
	ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var va ViewAnswers
	decode(t, resp, &va)
	if va.ID != "v0" || len(va.Rows) == 0 {
		t.Fatalf("view answers: %+v", va)
	}
	if va.Rows[0].Cost <= 0 || va.Rows[0].Provenance == "" {
		t.Errorf("row metadata missing: %+v", va.Rows[0])
	}

	// List views.
	lresp, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	var list []ViewSummary
	decode(t, lresp, &list)
	if len(list) != 1 || list[0].ID != "v0" {
		t.Fatalf("views list: %+v", list)
	}

	// Fetch by id.
	gresp, err := http.Get(ts.URL + "/views/v0")
	if err != nil {
		t.Fatal(err)
	}
	var va2 ViewAnswers
	decode(t, gresp, &va2)
	if len(va2.Rows) != len(va.Rows) {
		t.Errorf("rows differ between create and get")
	}

	// Unknown view.
	nf, err := http.Get(ts.URL + "/views/v99")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("v99 status = %d", nf.StatusCode)
	}
}

func TestFeedbackEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	var va ViewAnswers
	decode(t, resp, &va)

	fresp := postJSON(t, ts.URL+"/views/v0/feedback", FeedbackRequest{Row: 0, Kind: "valid"})
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status = %d", fresp.StatusCode)
	}
	var after ViewAnswers
	decode(t, fresp, &after)
	if len(after.Rows) == 0 {
		t.Error("view lost answers after feedback")
	}

	bad := postJSON(t, ts.URL+"/views/v0/feedback", FeedbackRequest{Row: 0, Kind: "meh"})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind status = %d", bad.StatusCode)
	}
	// Out-of-range rows are a conflict, not a bad request: the index may
	// have been valid against the materialisation the client read before
	// a concurrent write re-ranked it. 409 tells the client to re-read.
	oob := postJSON(t, ts.URL+"/views/v0/feedback", FeedbackRequest{Row: 10_000, Kind: "valid"})
	oob.Body.Close()
	if oob.StatusCode != http.StatusConflict {
		t.Errorf("out-of-range row status = %d, want %d", oob.StatusCode, http.StatusConflict)
	}
	if oob.Header.Get("X-Q-Epoch") == "" {
		t.Error("409 response missing X-Q-Epoch header")
	}
}

// TestFeedbackBeyondTopK pins the wire side of top-k execution: a view whose
// branches yield more than k rows reports exactly k answers and rows, and
// feedback on row k is a 409 — the row a full materialisation would have had
// there was never computed.
func TestFeedbackBeyondTopK(t *testing.T) {
	q, _, ts := newAdmissionServer(t, Config{})
	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "'GO:0001000' term"})
	var va ViewAnswers
	decode(t, resp, &va)
	total := 0
	for _, cq := range q.Views()[0].Queries() {
		rs, err := relstore.Execute(q.CurrentCatalog(), cq)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rs.Rows)
	}
	if total <= va.K {
		t.Fatalf("branches yield %d rows, need more than k = %d for this test", total, va.K)
	}
	if va.Answers != va.K || len(va.Rows) != va.K {
		t.Errorf("answers = %d, rows = %d, want k = %d of the %d available", va.Answers, len(va.Rows), va.K, total)
	}
	fb := postJSON(t, ts.URL+"/views/"+va.ID+"/feedback", FeedbackRequest{Row: va.K, Kind: "valid"})
	fb.Body.Close()
	if fb.StatusCode != http.StatusConflict {
		t.Errorf("feedback on row k = %d: status %d, want %d", va.K, fb.StatusCode, http.StatusConflict)
	}
}

func TestRegisterSourceEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// A view makes VIEWBASEDALIGNER meaningful.
	postJSON(t, ts.URL+"/query", QueryRequest{Q: "'PUB00001' title"}).Body.Close()

	req := RegisterRequest{
		Source:   "ext",
		Strategy: "viewbased",
		Tables: []TableSpec{{
			Name:       "citations",
			Attributes: []string{"pub_id", "cited_by"},
			Rows:       [][]string{{"PUB00001", "PUB00002"}, {"PUB00003", "PUB00001"}},
		}},
	}
	resp := postJSON(t, ts.URL+"/sources", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}
	var rr RegisterResponse
	decode(t, resp, &rr)
	if rr.Source != "ext" || len(rr.NewRelations) != 1 {
		t.Fatalf("register response: %+v", rr)
	}
	if len(rr.Alignments) == 0 {
		t.Error("expected discovered alignments (pub_id overlaps)")
	}

	// Duplicate registration conflicts.
	dup := postJSON(t, ts.URL+"/sources", req)
	dup.Body.Close()
	if dup.StatusCode != http.StatusConflict {
		t.Errorf("duplicate status = %d", dup.StatusCode)
	}

	// Stats reflect the new source.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	decode(t, sresp, &stats)
	if stats.Relations != 9 {
		t.Errorf("relations = %d, want 9", stats.Relations)
	}
	found := false
	for _, s := range stats.Sources {
		if s == "ext" {
			found = true
		}
	}
	if !found {
		t.Errorf("ext missing from sources: %v", stats.Sources)
	}
}

func TestRegisterValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []struct {
		body interface{}
		want int
	}{
		{map[string]string{"source": ""}, http.StatusBadRequest},
		{RegisterRequest{Source: "x", Strategy: "bogus",
			Tables: []TableSpec{{Name: "t", Attributes: []string{"a"}}}}, http.StatusBadRequest},
		{RegisterRequest{Source: "x",
			Tables: []TableSpec{{Name: "t", Attributes: []string{"a"},
				Rows: [][]string{{"1", "2"}}}}}, http.StatusBadRequest}, // row width
	}
	for i, c := range cases {
		resp := postJSON(t, ts.URL+"/sources", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("case %d: status = %d, want %d", i, resp.StatusCode, c.want)
		}
	}
}

func TestAssociationsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/associations")
	if err != nil {
		t.Fatal(err)
	}
	var list []AssociationInfo
	decode(t, resp, &list)
	if len(list) == 0 {
		t.Fatal("expected association edges")
	}
	for _, a := range list {
		if a.A == "" || a.B == "" || a.Cost <= 0 {
			t.Errorf("malformed association: %+v", a)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/query", "/sources"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
	resp := postJSON(t, ts.URL+"/views", struct{}{})
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /views = %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts := newTestServer(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			resp := postJSON(t, ts.URL+"/query",
				QueryRequest{Q: fmt.Sprintf("'GO:%07d' 'fam_%d'", 1000+i, i)})
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	resp, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	var list []ViewSummary
	decode(t, resp, &list)
	if len(list) != n {
		t.Errorf("views = %d, want %d", len(list), n)
	}
}

// Views the core already holds when the server is constructed — e.g.
// restored from a durable snapshot by core.Open — must be addressable
// over HTTP under their own IDs, and new queries must keep minting unique
// ids after them.
func TestPreexistingViewsSeeded(t *testing.T) {
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs()
	if _, err := q.Query(core.Request{Keywords: core.ParseKeywords("'GO:0001000' 'fam_0'")}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(New(q))
	t.Cleanup(ts.Close)

	lresp, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	var list []ViewSummary
	decode(t, lresp, &list)
	if len(list) != 1 || list[0].ID != "v0" {
		t.Fatalf("seeded views = %+v, want one entry v0", list)
	}
	gresp, err := http.Get(ts.URL + "/views/v0")
	if err != nil {
		t.Fatal(err)
	}
	var va ViewAnswers
	decode(t, gresp, &va)
	if gresp.StatusCode != http.StatusOK || len(va.Rows) == 0 {
		t.Fatalf("GET seeded view: status %d, %d rows", gresp.StatusCode, len(va.Rows))
	}

	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	var next ViewAnswers
	decode(t, resp, &next)
	if next.ID != "v1" {
		t.Fatalf("post-seed query id = %q, want v1", next.ID)
	}
}

// TestManyKeywordQuery: a query with more keywords than the exact Steiner
// search accepts is answered by the approximation — an ordinary response,
// counted on /metrics — instead of panicking inside the materialisation
// cache's in-flight computation, and the server keeps answering afterwards.
func TestManyKeywordQuery(t *testing.T) {
	_, q := newObsServer(t, Config{})
	srv := New(q) // driven through ServeHTTP directly: a panic would reach the test
	do := func(method, path string, body interface{}) *httptest.ResponseRecorder {
		t.Helper()
		return serve(t, srv, method, path, body)
	}

	var many bytes.Buffer
	for i := 0; i <= steiner.MaxExactTerminals; i++ {
		fmt.Fprintf(&many, "'GO:%07d' ", 1000+i)
	}
	for _, path := range []string{"/query", "/query?ephemeral=1"} {
		w := do("POST", path, QueryRequest{Q: many.String()})
		if w.Code >= 300 || !json.Valid(w.Body.Bytes()) {
			t.Fatalf("POST %s with %d keywords: status %d, body %q", path, steiner.MaxExactTerminals+1, w.Code, w.Body)
		}
	}
	if w := do("POST", "/query", QueryRequest{Q: "'GO:0001000' 'fam_0'"}); w.Code != http.StatusCreated {
		t.Fatalf("query after the many-keyword one: status %d, body %q", w.Code, w.Body)
	}
	w := do("GET", "/metrics", nil)
	exp, err := obs.ParseExposition(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Once: the ephemeral repeat is served from the materialisation cache.
	if v, _ := exp.Value("qint_steiner_approx_routed_total"); v != 1 {
		t.Errorf("qint_steiner_approx_routed_total = %v, want 1", v)
	}
	if v, _ := exp.Value("qint_steiner_pops_total"); v == 0 {
		t.Error("qint_steiner_pops_total = 0 after an exact search")
	}
}

// serve drives one request through h's ServeHTTP and returns the recorded
// response; a nil body sends none.
func serve(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var r io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(b)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, r))
	return w
}

// TestQueryKeywordCap: POST /query accepts up to maxQueryKeywords keywords
// and answers 400 beyond, before any engine work.
func TestQueryKeywordCap(t *testing.T) {
	q, s, _ := newAdmissionServer(t, Config{})
	query := func(n int) QueryRequest {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "'GO:%07d' ", 1000+i)
		}
		return QueryRequest{Q: b.String()}
	}
	before := q.Metrics().Counter("qint_queries_total", "").Load()
	capped := q.Metrics().Counter("qint_serving_capped_queries_total", "")
	if w := serve(t, s, "POST", "/query?ephemeral=1", query(maxQueryKeywords)); w.Code != http.StatusOK {
		t.Errorf("%d keywords: status %d, want 200: %s", maxQueryKeywords, w.Code, w.Body)
	}
	w := serve(t, s, "POST", "/query", query(maxQueryKeywords+1))
	if w.Code != http.StatusBadRequest {
		t.Errorf("%d keywords: status %d, want 400: %s", maxQueryKeywords+1, w.Code, w.Body)
	}
	if n := q.Metrics().Counter("qint_queries_total", "").Load() - before; n != 1 {
		t.Errorf("engine ran %d queries, want 1: the over-cap query must not reach it", n)
	}
	if n := capped.Load(); n != 1 {
		t.Errorf("qint_serving_capped_queries_total = %d, want 1", n)
	}
	if n := len(q.Views()); n != 0 {
		t.Errorf("engine holds %d views, want 0", n)
	}
}

// TestConcurrentDeleteView: of concurrent DELETEs of one view exactly one
// drops it (204); the rest find it gone (404), and views_deleted counts 1.
func TestConcurrentDeleteView(t *testing.T) {
	q, s, _ := newAdmissionServer(t, Config{})
	if w := serve(t, s, "POST", "/query", QueryRequest{Q: admissionQuery}); w.Code != http.StatusCreated {
		t.Fatalf("create: status %d", w.Code)
	}
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- serve(t, s, "DELETE", "/views/v0", nil).Code
		}()
	}
	wg.Wait()
	close(codes)
	count := map[int]int{}
	for c := range codes {
		count[c]++
	}
	if count[http.StatusNoContent] != 1 || count[http.StatusNotFound] != n-1 {
		t.Errorf("status counts %v, want one 204 and %d 404", count, n-1)
	}
	if got := s.ServingStats().ViewsDeleted; got != 1 {
		t.Errorf("views_deleted = %d, want 1", got)
	}
	if len(q.Views()) != 0 {
		t.Error("the view survived its DELETE")
	}
}

// TestViewIDsSurviveRestart: a view's wire ID is its engine ID, which
// persists with the view definition. After a restart of a durable instance
// every ID names the view it named before — with byte-identical answers —
// a deleted ID stays deleted, and the next view gets a fresh ID.
func TestViewIDsSurviveRestart(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DataDir = t.TempDir()
	open := func() (*core.Q, *Server) {
		t.Helper()
		q, err := core.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { q.Close() })
		q.AddMatcher(meta.New())
		q.AddMatcher(mad.New())
		if q.CurrentCatalog().NumRelations() == 0 {
			if err := q.AddTables(datasets.InterProGO().Tables...); err != nil {
				t.Fatal(err)
			}
			q.AlignAllPairs()
		}
		return q, New(q)
	}

	q, s := open()
	for i := 0; i < 3; i++ {
		w := serve(t, s, "POST", "/query", QueryRequest{Q: fmt.Sprintf("'GO:%07d' 'fam_%d'", 1000+i, i)})
		if w.Code != http.StatusCreated {
			t.Fatalf("create %d: status %d: %s", i, w.Code, w.Body)
		}
	}
	if w := serve(t, s, "DELETE", "/views/v1", nil); w.Code != http.StatusNoContent {
		t.Fatalf("DELETE v1: status %d", w.Code)
	}
	want := map[string][]byte{}
	for _, id := range []string{"v0", "v2"} {
		want[id] = serve(t, s, "GET", "/views/"+id, nil).Body.Bytes()
	}
	wantList := serve(t, s, "GET", "/views", nil).Body.Bytes()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	_, s = open()
	if got := serve(t, s, "GET", "/views", nil).Body.Bytes(); !bytes.Equal(got, wantList) {
		t.Errorf("/views after restart:\n%s\nwant:\n%s", got, wantList)
	}
	for id, body := range want {
		w := serve(t, s, "GET", "/views/"+id, nil)
		if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), body) {
			t.Errorf("/views/%s after restart: status %d\n%s\nwant:\n%s", id, w.Code, w.Body, body)
		}
	}
	if w := serve(t, s, "GET", "/views/v1", nil); w.Code != http.StatusNotFound {
		t.Errorf("/views/v1 after restart: status %d, want 404 (it was deleted)", w.Code)
	}
	w := serve(t, s, "POST", "/query", QueryRequest{Q: admissionQuery})
	var va ViewAnswers
	if err := json.Unmarshal(w.Body.Bytes(), &va); err != nil || w.Code != http.StatusCreated || va.ID != "v3" {
		t.Errorf("next view after restart: status %d, id %q; want 201 and v3", w.Code, va.ID)
	}
}

// TestSingleKeywordQuery: a one-keyword query answers (201 with rows), not
// 400 on the edgeless one-node Steiner tree.
func TestSingleKeywordQuery(t *testing.T) {
	ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: "membrane"})
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var va ViewAnswers
	decode(t, resp, &va)
	if len(va.Rows) == 0 {
		t.Errorf("single-keyword view has no rows: %+v", va)
	}
}

// TestWriteAfterCloseRefused: once the durable engine is closed (a shutdown
// whose drain timed out), POST /sources and feedback get 503 with
// Retry-After: the write was not applied, and a restarted server takes it.
func TestWriteAfterCloseRefused(t *testing.T) {
	opts := core.DefaultOptions()
	opts.DataDir = t.TempDir()
	q, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	q.AddMatcher(meta.New())
	if err := q.AddTables(datasets.InterProGO().Tables...); err != nil {
		t.Fatal(err)
	}
	s := New(q)
	if w := serve(t, s, "POST", "/query", QueryRequest{Q: "membrane"}); w.Code != http.StatusCreated {
		t.Fatalf("query: status %d: %s", w.Code, w.Body)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	register := RegisterRequest{Source: "ext", Strategy: "exhaustive", Tables: []TableSpec{{
		Name: "citations", Attributes: []string{"pub_id", "cited_by"},
		Rows: [][]string{{"PUB00001", "PUB00002"}},
	}}}
	for _, c := range []struct {
		path string
		body interface{}
	}{
		{"/sources", register},
		{"/views/v0/feedback", FeedbackRequest{Row: 0, Kind: "valid"}},
	} {
		w := serve(t, s, "POST", c.path, c.body)
		if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
			t.Errorf("POST %s after Close: status %d, Retry-After %q; want 503 with Retry-After: %s",
				c.path, w.Code, w.Header().Get("Retry-After"), w.Body)
		}
	}
	if n := q.CurrentCatalog().NumRelations(); n != len(datasets.InterProGO().Tables) {
		t.Errorf("catalog has %d relations after refused writes, want %d", n, len(datasets.InterProGO().Tables))
	}
}
