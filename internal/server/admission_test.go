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
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
)

// newAdmissionServer builds a server over the InterPro-GO corpus with
// explicit serving limits, returning the engine and server so tests can
// inspect both sides of the admission layer.
func newAdmissionServer(t *testing.T, cfg Config) (*core.Q, *Server, *httptest.Server) {
	t.Helper()
	return newAdmissionServerOpts(t, core.DefaultOptions(), cfg)
}

// newAdmissionServerOpts is newAdmissionServer over explicit engine options.
func newAdmissionServerOpts(t *testing.T, opts core.Options, cfg Config) (*core.Q, *Server, *httptest.Server) {
	t.Helper()
	q := core.New(opts)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs()
	s := NewWith(q, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return q, s, ts
}

const admissionQuery = "'GO:0001000' 'fam_0'"

// TestQueryAdmissionShedsOverLimit is the admission hammer: with the
// in-flight limit at 2, two queries are parked in flight (holding their
// admission tokens on a test barrier), a burst of further queries must ALL
// be shed with fast 429s + Retry-After — never queued, never executing —
// and the two parked queries must then complete normally. Runs under -race
// in CI.
func TestQueryAdmissionShedsOverLimit(t *testing.T) {
	_, s, ts := newAdmissionServer(t, Config{MaxInFlightQueries: 2})

	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s.queryBarrier = func() {
		entered <- struct{}{}
		<-release
	}

	// Park two queries in flight.
	type result struct {
		status int
		body   string
	}
	parked := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"q":"`+admissionQuery+`"}`))
			if err != nil {
				parked <- result{status: -1, body: err.Error()}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			parked <- result{status: resp.StatusCode, body: string(b)}
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatal("parked queries never reached the barrier")
		}
	}

	// Every query of an over-limit burst is shed immediately with 429.
	const burst = 8
	var wg sync.WaitGroup
	shed := make(chan result, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/query", "application/json",
				strings.NewReader(`{"q":"`+admissionQuery+`"}`))
			if err != nil {
				shed <- result{status: -1, body: err.Error()}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.Header.Get("Retry-After") == "" {
				shed <- result{status: -2, body: "missing Retry-After"}
				return
			}
			shed <- result{status: resp.StatusCode, body: string(b)}
		}()
	}
	wg.Wait()
	close(shed)
	for r := range shed {
		if r.status != http.StatusTooManyRequests {
			t.Errorf("over-limit query: status %d (%s), want 429", r.status, r.body)
		}
	}

	// The in-flight pair completes once released.
	close(release)
	for i := 0; i < 2; i++ {
		r := <-parked
		if r.status != http.StatusCreated {
			t.Errorf("parked query: status %d (%s), want 201", r.status, r.body)
		}
	}

	st := s.ServingStats()
	if st.ShedQueries != burst {
		t.Errorf("ShedQueries = %d, want %d", st.ShedQueries, burst)
	}
	if st.ServedQueries != 2 {
		t.Errorf("ServedQueries = %d, want 2", st.ServedQueries)
	}
	if st.InFlightQueries != 0 {
		t.Errorf("InFlightQueries = %d after completion, want 0", st.InFlightQueries)
	}
}

// TestWriteQueueBackpressure pins the write path: with the queue depth at
// 1, a registration parked inside a blocking matcher holds the only slot,
// so a second registration AND a feedback post are shed with 503 +
// Retry-After; after release the parked registration lands.
func TestWriteQueueBackpressure(t *testing.T) {
	bm := newBlockingMatcher()
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(bm)
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs()
	s := NewWith(q, Config{WriteQueueDepth: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// A view to aim feedback at.
	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: admissionQuery})
	var va ViewAnswers
	decode(t, resp, &va)
	if len(va.Rows) == 0 {
		t.Fatal("seed query returned no rows")
	}

	reg := func(name string) RegisterRequest {
		return RegisterRequest{
			Source: name,
			Tables: []TableSpec{{
				Name:       "data",
				Attributes: []string{"go_id", "label"},
				Rows:       [][]string{{"GO:0001000", "x"}},
			}},
			Strategy: "preferential",
		}
	}

	bm.armed.Store(true)
	done := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/sources", reg("parked"))
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case <-bm.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("registration never reached the matcher")
	}

	// Queue full: both write kinds shed with 503 + Retry-After.
	r2 := postJSON(t, ts.URL+"/sources", reg("shed"))
	io.Copy(io.Discard, r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable || r2.Header.Get("Retry-After") == "" {
		t.Errorf("second registration: status %d Retry-After %q, want 503 + header",
			r2.StatusCode, r2.Header.Get("Retry-After"))
	}
	fb := postJSON(t, ts.URL+"/views/"+va.ID+"/feedback", FeedbackRequest{Row: 0, Kind: "valid"})
	io.Copy(io.Discard, fb.Body)
	fb.Body.Close()
	if fb.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("feedback during full queue: status %d, want 503", fb.StatusCode)
	}
	if st := s.ServingStats(); st.ShedWrites != 2 {
		t.Errorf("ShedWrites = %d, want 2", st.ShedWrites)
	}

	bm.armed.Store(false)
	close(bm.release)
	if status := <-done; status != http.StatusCreated {
		t.Errorf("parked registration: status %d, want 201", status)
	}
}

// TestEphemeralQueryLeavesRegistryUntouched pins the POST /query view-leak
// fix: ?ephemeral=1 returns answers byte-identical to a persistent query's
// but registers nothing in the engine's view registry.
func TestEphemeralQueryLeavesRegistryUntouched(t *testing.T) {
	q, s, ts := newAdmissionServer(t, Config{})

	persistent := postJSON(t, ts.URL+"/query", QueryRequest{Q: admissionQuery})
	var pa ViewAnswers
	decode(t, persistent, &pa)
	baseViews := len(q.Views())

	eph := postJSON(t, ts.URL+"/query?ephemeral=1", QueryRequest{Q: admissionQuery})
	if eph.StatusCode != http.StatusOK {
		t.Fatalf("ephemeral status = %d, want 200", eph.StatusCode)
	}
	if eph.Header.Get("X-Q-Epoch") == "" {
		t.Error("ephemeral response missing X-Q-Epoch")
	}
	var ea ViewAnswers
	decode(t, eph, &ea)
	if ea.ID != "" {
		t.Errorf("ephemeral answer carries view id %q", ea.ID)
	}
	if len(ea.Rows) != len(pa.Rows) {
		t.Fatalf("ephemeral rows %d != persistent rows %d", len(ea.Rows), len(pa.Rows))
	}
	for i := range ea.Rows {
		a, _ := json.Marshal(ea.Rows[i])
		b, _ := json.Marshal(pa.Rows[i])
		if !bytes.Equal(a, b) {
			t.Errorf("row %d differs:\nephemeral:  %s\npersistent: %s", i, a, b)
		}
	}

	if got := len(q.Views()); got != baseViews {
		t.Errorf("engine views grew %d -> %d on an ephemeral query", baseViews, got)
	}
	if st := s.ServingStats(); st.EphemeralQueries != 1 {
		t.Errorf("EphemeralQueries = %d, want 1", st.EphemeralQueries)
	}
}

// TestMaxViewsCap pins the registry bound (core.Options.MaxViews): at the
// cap, non-ephemeral queries are shed with 429 and counted, ephemeral ones
// still serve, and DELETE frees a slot.
func TestMaxViewsCap(t *testing.T) {
	opts := core.DefaultOptions()
	opts.MaxViews = 2
	q, s, ts := newAdmissionServerOpts(t, opts, Config{})

	mkQuery := func(i int) QueryRequest {
		return QueryRequest{Q: fmt.Sprintf("'GO:%07d' 'fam_%d'", 1000+i, i%4)}
	}
	var firstID string
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/query", mkQuery(i))
		var va ViewAnswers
		decode(t, resp, &va)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
		if i == 0 {
			firstID = va.ID
		}
	}

	over := postJSON(t, ts.URL+"/query", mkQuery(2))
	body, _ := io.ReadAll(over.Body)
	over.Body.Close()
	if over.StatusCode != http.StatusTooManyRequests || over.Header.Get("Retry-After") == "" {
		t.Errorf("query at cap: status %d Retry-After %q, want 429 + header", over.StatusCode, over.Header.Get("Retry-After"))
	}
	if want := "view registry full (max 2); use ?ephemeral=1 or DELETE /views/{id}"; !strings.Contains(string(body), want) {
		t.Errorf("query at cap: body %s, want %q", body, want)
	}
	if n := len(q.Views()); n != 2 {
		t.Errorf("engine holds %d views at a cap of 2", n)
	}
	if st := s.ServingStats(); st.ShedQueries != 1 || st.MaxViews != 2 {
		t.Errorf("ShedQueries = %d, MaxViews = %d; want 1 and 2", st.ShedQueries, st.MaxViews)
	}

	eph := postJSON(t, ts.URL+"/query?ephemeral=1", mkQuery(2))
	io.Copy(io.Discard, eph.Body)
	eph.Body.Close()
	if eph.StatusCode != http.StatusOK {
		t.Errorf("ephemeral at cap: status %d, want 200", eph.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/views/"+firstID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", del.StatusCode)
	}

	freed := postJSON(t, ts.URL+"/query", mkQuery(3))
	io.Copy(io.Discard, freed.Body)
	freed.Body.Close()
	if freed.StatusCode != http.StatusCreated {
		t.Errorf("query after DELETE freed a slot: status %d, want 201", freed.StatusCode)
	}
}

// TestDeleteView pins DELETE /views/{id}: the view disappears from the
// registry, the listing, and the engine's maintenance set; a second DELETE
// and subsequent GETs are 404.
func TestDeleteView(t *testing.T) {
	q, _, ts := newAdmissionServer(t, Config{})

	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: admissionQuery})
	var va ViewAnswers
	decode(t, resp, &va)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/views/"+va.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: status %d, want 204", del.StatusCode)
	}
	if n := len(q.Views()); n != 0 {
		t.Errorf("engine still holds %d views after DELETE", n)
	}

	get, err := http.Get(ts.URL + "/views/" + va.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusNotFound {
		t.Errorf("GET after DELETE: status %d, want 404", get.StatusCode)
	}
	again, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	again.Body.Close()
	if again.StatusCode != http.StatusNotFound {
		t.Errorf("double DELETE: status %d, want 404", again.StatusCode)
	}
}

// TestTrailingSlashView pins the /views/{id}/ fix: the trailing-slash form
// serves the same answers as the canonical path instead of "unknown view
// endpoint".
func TestTrailingSlashView(t *testing.T) {
	_, _, ts := newAdmissionServer(t, Config{})
	resp := postJSON(t, ts.URL+"/query", QueryRequest{Q: admissionQuery})
	var va ViewAnswers
	decode(t, resp, &va)

	canonical, err := http.Get(ts.URL + "/views/" + va.ID)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := io.ReadAll(canonical.Body)
	canonical.Body.Close()

	slashed, err := http.Get(ts.URL + "/views/" + va.ID + "/")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(slashed.Body)
	slashed.Body.Close()
	if slashed.StatusCode != http.StatusOK {
		t.Fatalf("GET /views/%s/: status %d, want 200", va.ID, slashed.StatusCode)
	}
	if !bytes.Equal(cb, sb) {
		t.Errorf("trailing-slash answers differ:\n%s\nvs\n%s", sb, cb)
	}
}

// TestBodyLimit413 pins the MaxBytesReader wrapping: oversized POST bodies
// get 413 on every body-carrying endpoint instead of being read to the
// end.
func TestBodyLimit413(t *testing.T) {
	_, _, ts := newAdmissionServer(t, Config{MaxBodyBytes: 512})

	big := strings.Repeat("x", 2048)
	for _, path := range []string{"/query", "/sources"} {
		resp, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"q":"`+big+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d-byte body: status %d, want 413",
				path, len(big)+8, resp.StatusCode)
		}
	}

	// A within-limit body still works.
	ok := postJSON(t, ts.URL+"/query", QueryRequest{Q: admissionQuery})
	io.Copy(io.Discard, ok.Body)
	ok.Body.Close()
	if ok.StatusCode != http.StatusCreated {
		t.Errorf("within-limit query: status %d, want 201", ok.StatusCode)
	}
}
