package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// TestHammerMixedLoad fires many goroutines of mixed reads and writes at one
// server under the race detector: keyword queries, view listings and
// fetches, association and stats reads, and feedback posts. It then checks the server's bookkeeping survived — every
// created view has a unique stable ID and shows up in the listing.
func TestHammerMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	ts := newTestServer(t)

	const writers = 6
	const readers = 12
	const perWriter = 3

	var mu sync.Mutex
	var created []string
	errc := make(chan error, writers+readers)
	var wg sync.WaitGroup

	// Writers: POST /query plus a feedback post against the view each one
	// just created.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				resp := postJSON(t, ts.URL+"/query", QueryRequest{
					Q: fmt.Sprintf("'GO:%07d' 'fam_%d'", 1000+w, (w+i)%4),
				})
				if resp.StatusCode != http.StatusCreated {
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					errc <- fmt.Errorf("writer %d: query status %d: %s", w, resp.StatusCode, body)
					return
				}
				var va ViewAnswers
				if err := json.NewDecoder(resp.Body).Decode(&va); err != nil {
					resp.Body.Close()
					errc <- fmt.Errorf("writer %d: decode: %v", w, err)
					return
				}
				resp.Body.Close()
				mu.Lock()
				created = append(created, va.ID)
				mu.Unlock()
				if len(va.Rows) > 0 {
					// A concurrent writer's feedback rematerialises every
					// view, so our row index can go stale between reading
					// the rows and posting — the server answers 409 and we
					// re-read and retry, like a real client. Any other
					// non-OK status is a failure.
					for attempt := 0; ; attempt++ {
						fb := postJSON(t, ts.URL+"/views/"+va.ID+"/feedback",
							FeedbackRequest{Row: 0, Kind: "valid"})
						io.Copy(io.Discard, fb.Body)
						fb.Body.Close()
						if fb.StatusCode == http.StatusOK {
							break
						}
						if fb.StatusCode != http.StatusConflict || attempt >= 5 {
							errc <- fmt.Errorf("writer %d: feedback on %s: status %d (attempt %d)",
								w, va.ID, fb.StatusCode, attempt)
							return
						}
						cur, err := http.Get(ts.URL + "/views/" + va.ID)
						if err != nil {
							errc <- fmt.Errorf("writer %d: re-read %s: %v", w, va.ID, err)
							return
						}
						var now ViewAnswers
						if err := json.NewDecoder(cur.Body).Decode(&now); err != nil {
							cur.Body.Close()
							errc <- fmt.Errorf("writer %d: re-read %s: decode: %v", w, va.ID, err)
							return
						}
						cur.Body.Close()
						if len(now.Rows) == 0 {
							// Re-ranked to an empty view: nothing left to
							// mark valid. The conflict answer was correct.
							break
						}
					}
				}
			}
			errc <- nil
		}(w)
	}

	// Readers: hit every GET endpoint in a loop while the writers churn.
	paths := []string{"/views", "/associations", "/stats", "/views/v0"}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				path := paths[(r+i)%len(paths)]
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					errc <- fmt.Errorf("reader %d: GET %s: %v", r, path, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				// /views/v0 may 404 until the first writer lands; every
				// other read must succeed.
				if resp.StatusCode != http.StatusOK &&
					!(path == "/views/v0" && resp.StatusCode == http.StatusNotFound) {
					errc <- fmt.Errorf("reader %d: GET %s: status %d", r, path, resp.StatusCode)
					return
				}
			}
			errc <- nil
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}

	// Stable IDs: no duplicates despite concurrent creation, and the final
	// listing contains exactly the IDs handed out.
	if len(created) != writers*perWriter {
		t.Fatalf("created %d views, want %d", len(created), writers*perWriter)
	}
	seen := make(map[string]bool)
	for _, id := range created {
		if seen[id] {
			t.Errorf("duplicate view id %s", id)
		}
		seen[id] = true
	}
	resp, err := http.Get(ts.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	var list []ViewSummary
	decode(t, resp, &list)
	if len(list) != len(created) {
		t.Fatalf("listing has %d views, want %d", len(list), len(created))
	}
	for _, s := range list {
		if !seen[s.ID] {
			t.Errorf("listing contains unknown id %s", s.ID)
		}
		// Each listed view must be fetchable under its stable ID.
		g, err := http.Get(ts.URL + "/views/" + s.ID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, g.Body)
		g.Body.Close()
		if g.StatusCode != http.StatusOK {
			t.Errorf("GET /views/%s = %d", s.ID, g.StatusCode)
		}
	}
}

// blockingMatcher is a schema matcher that, once armed, parks inside Match
// until released — standing in for an expensively slow registration (a
// huge source, a slow matcher) so the test can hold a registration
// in flight for as long as it likes.
type blockingMatcher struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingMatcher() *blockingMatcher {
	return &blockingMatcher{entered: make(chan struct{}), release: make(chan struct{})}
}

func (m *blockingMatcher) Name() string { return "blocking" }

func (m *blockingMatcher) Match(cat *relstore.Catalog, a, b *relstore.Relation) []matcher.Alignment {
	if m.armed.Load() {
		m.once.Do(func() { close(m.entered) })
		<-m.release
	}
	return nil
}

// TestQueryCompletesDuringSlowRegistration pins the tentpole contract at
// the HTTP layer: POST /query no longer blocks behind POST /sources. A
// registration is parked mid-alignment (holding Q's writer path), and a
// query — plus every GET endpoint — must complete while it is in flight,
// answering from the pre-registration snapshot.
func TestQueryCompletesDuringSlowRegistration(t *testing.T) {
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	blocker := newBlockingMatcher()
	q.AddMatcher(blocker)
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	q.AlignAllPairs() // blocker not armed yet: instant
	ts := httptest.NewServer(New(q))
	t.Cleanup(ts.Close)

	// Park a registration inside the blocking matcher.
	blocker.armed.Store(true)
	regDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/sources", RegisterRequest{
			Source:   "slow",
			Strategy: "exhaustive",
			Tables: []TableSpec{{
				Name:       "data",
				Attributes: []string{"pub_id", "label"},
				Rows:       [][]string{{"PUB00001", "x"}},
			}},
		})
		resp.Body.Close()
		regDone <- resp.StatusCode
	}()
	select {
	case <-blocker.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("registration never reached the matcher")
	}

	// The registration is now in flight and parked. Queries and reads must
	// complete against the pre-registration snapshot within the deadline.
	client := &http.Client{Timeout: 10 * time.Second}
	qb, _ := json.Marshal(QueryRequest{Q: "'GO:0001000' 'fam_0'"})
	start := time.Now()
	resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(qb))
	if err != nil {
		t.Fatalf("query blocked behind the in-flight registration: %v", err)
	}
	var va ViewAnswers
	decode(t, resp, &va)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("query during registration: status %d", resp.StatusCode)
	}
	if len(va.Rows) == 0 {
		t.Error("query during registration returned no answers")
	}
	t.Logf("query completed in %v with %d rows while registration was parked", time.Since(start), len(va.Rows))

	for _, path := range []string{"/views", "/associations", "/stats"} {
		getResp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s blocked behind the in-flight registration: %v", path, err)
		}
		io.Copy(io.Discard, getResp.Body)
		getResp.Body.Close()
		if getResp.StatusCode != http.StatusOK {
			t.Errorf("GET %s during registration: status %d", path, getResp.StatusCode)
		}
	}

	// Release the parked registration and let it commit.
	close(blocker.release)
	select {
	case status := <-regDone:
		if status != http.StatusCreated {
			t.Fatalf("slow registration finished with status %d", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("released registration never finished")
	}
}
