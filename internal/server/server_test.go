package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/obs"
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
// over HTTP, and new queries must keep minting unique ids after them.
func TestPreexistingViewsSeeded(t *testing.T) {
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs()
	if _, err := q.Query("'GO:0001000' 'fam_0'"); err != nil {
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
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(b)))
		return w
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
