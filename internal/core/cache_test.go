package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qint/internal/relstore"
)

// newUncached is New without the query caches: the cold oracle engine the
// cache and planner suites compare against. Its first generation, published
// by New, loses its caches before the engine is shared, and every later
// publish attaches none.
func newUncached(opts Options) *Q {
	return uncache(New(opts))
}

// uncache takes the query caches off q before it is shared: its published
// generation loses its caches, and every later publish attaches none.
func uncache(q *Q) *Q {
	q.uncached = true
	q.state().qc = nil
	return q
}

// TestCachedQueriesUnderConcurrentWrites is the -race half: queriers
// hammer both engines while a writer registers sources in lockstep.
// Answers are recorded keyed by (query, epoch) — the same op sequence
// produces the same generation content at every epoch in both engines, so
// any (query, epoch) observed by both must be byte-identical, and any
// (query, epoch) observed twice within one engine (hit vs compute, or a
// racing recompute) must be identical too.
func TestCachedQueriesUnderConcurrentWrites(t *testing.T) {
	cached, cold := cachePair(t)
	engines := []*Q{cached, cold}

	type record struct {
		mu  sync.Mutex
		fps map[string]string // "epoch|query" -> fingerprint
	}
	recs := [2]*record{{fps: map[string]string{}}, {fps: map[string]string{}}}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for ei, q := range engines {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(ei, g int, q *Q) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100*ei + g)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					query := cacheQueryPool[rng.Intn(len(cacheQueryPool))]
					v, err := queryStr(q, query)
					if err != nil {
						t.Errorf("engine %d: query %q: %v", ei, query, err)
						return
					}
					m := v.Current()
					key := fmt.Sprintf("%d|%s", m.Epoch, query)
					fp := fingerprintMat(v, m)
					q.DropView(v.ID) // keep the refresh fan-out bounded
					r := recs[ei]
					r.mu.Lock()
					if prev, ok := r.fps[key]; ok && prev != fp {
						r.mu.Unlock()
						t.Errorf("engine %d: %s answered two different results at one epoch", ei, key)
						return
					}
					r.fps[key] = fp
					r.mu.Unlock()
				}
			}(ei, g, q)
		}
	}

	// Lockstep writer: same registrations, same order, on both engines.
	// Exhaustive keeps registration independent of the (racy) view registry.
	for step := 0; step < 5; step++ {
		for _, q := range engines {
			if _, err := q.RegisterSource(cacheRegSource(t, step), Exhaustive); err != nil {
				t.Fatalf("step %d: register: %v", step, err)
			}
		}
		time.Sleep(20 * time.Millisecond) // let queriers straddle epochs
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Cross-engine: every (epoch, query) both engines observed must match.
	overlap := 0
	for key, fp := range recs[0].fps {
		if other, ok := recs[1].fps[key]; ok {
			overlap++
			if other != fp {
				t.Errorf("cached and cold diverged at %s:\ncached:\n%s\ncold:\n%s", key, fp, other)
			}
		}
	}
	if overlap == 0 {
		t.Fatal("no (epoch, query) observed by both engines — the comparison never engaged")
	}

	// Quiesced final sweep: both engines at the same final epoch must agree
	// on the whole pool.
	for _, query := range cacheQueryPool {
		v1, err1 := queryStr(cached, query)
		v2, err2 := queryStr(cold, query)
		if err1 != nil || err2 != nil {
			t.Fatalf("final sweep %q: %v / %v", query, err1, err2)
		}
		if fingerprintView(v1) != fingerprintView(v2) {
			t.Errorf("final sweep %q diverged", query)
		}
	}
}

// TestConcurrentIdenticalQueriesComputeOnce pins request coalescing: N
// concurrent identical cold queries run the materialisation pipeline
// exactly once. The leader is parked inside the cache's compute until all
// other callers are provably waiting on its pending entry, so none of them
// can have computed on its own.
func TestConcurrentIdenticalQueriesComputeOnce(t *testing.T) {
	q := newFixtureQ(t, true)
	const n = 8
	release := make(chan struct{})
	q.matComputeHook = func() { <-release }

	// The counters are engine totals, so the checks read deltas.
	qc := q.state().qc
	before := qc.mat.Counters()
	fps := make(chan string, n)
	for i := 0; i < n; i++ {
		go func() {
			v, err := queryStr(q, "'plasma membrane' term")
			if err != nil {
				t.Error(err)
				fps <- ""
				return
			}
			fps <- fingerprintView(v)
		}()
	}
	coalesced := func() uint64 { return qc.mat.Counters().Coalesced - before.Coalesced }
	deadline := time.Now().Add(10 * time.Second)
	for coalesced() != n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d callers coalesced onto the flight", coalesced(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	first := <-fps
	for i := 1; i < n; i++ {
		if fp := <-fps; fp != first {
			t.Fatal("coalesced queries returned different answers")
		}
	}
	if execs := qc.mat.Counters().Computes - before.Computes; execs != 1 {
		t.Fatalf("pipeline executed %d times for %d concurrent identical queries, want 1", execs, n)
	}
	if co := coalesced(); co != n-1 {
		t.Fatalf("coalesced = %d, want %d", co, n-1)
	}
	// All n views share ONE materialisation object.
	views := q.Views()
	matSet := make(map[*viewMat]bool)
	for _, v := range views {
		matSet[v.mat.Load()] = true
	}
	if len(matSet) != 1 {
		t.Fatalf("%d distinct materialisations across %d coalesced views, want 1", len(matSet), len(views))
	}
}

// TestStatsAndCacheStatsRaceHammer samples every exported counter surface
// concurrently with queries, a registration and feedback. The race
// detector is the oracle: Query has been lock-free since the snapshot
// redesign, so any non-atomic counter on a hot path fails this test under
// -race.
func TestStatsAndCacheStatsRaceHammer(t *testing.T) {
	q, _ := cachePair(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 2; g++ { // queriers
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := queryStr(q, cacheQueryPool[rng.Intn(len(cacheQueryPool))])
				if err == nil {
					q.DropView(v.ID)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // counter readers
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = q.CacheStats()
			_ = q.Stats.BaseMatcherCalls()
			_ = q.Stats.AttrComparisons()
			_ = q.Stats.ColumnComparisonsUnfiltered()
			_ = q.Epoch()
		}
	}()

	// Writers: registrations bump Stats counters while readers sample them.
	for step := 0; step < 3; step++ {
		if _, err := q.RegisterSource(cacheRegSource(t, step), Exhaustive); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := queryStr(q, cacheQueryPool[0]); err == nil {
		if m := v.Current(); m.Result != nil && len(m.Result.Rows) > 0 {
			if err := q.FeedbackRow(v, 0, FeedbackValid); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestAppendRenderedKeepsFromSecondRead: the first render of a
// materialisation keeps nothing, the second keeps its bytes, and every later
// read appends them without rendering, to any view sharing the cached
// materialisation. A refused render is returned as nil and keeps nothing.
func TestAppendRenderedKeepsFromSecondRead(t *testing.T) {
	q := newFixtureQ(t, false)
	v, err := queryStr(q, "entry 'PUB0001'")
	if err != nil {
		t.Fatal(err)
	}
	renders := 0
	render := func(dst []byte, r *relstore.UnionResult) []byte {
		renders++
		return fmt.Appendf(dst, "%d rows of %v", len(r.Rows), r.Columns)
	}
	res := v.Current().Result
	want := fmt.Sprintf("> %d rows of %v", len(res.Rows), res.Columns)

	refuse := func([]byte, *relstore.UnionResult) []byte { return nil }
	if got := v.Current().AppendRendered([]byte("> "), refuse); got != nil {
		t.Fatalf("a refused render returned %q", got)
	}
	for read, wantRenders := range []int{1, 2, 2, 2} {
		if got := string(v.Current().AppendRendered([]byte("> "), render)); got != want {
			t.Fatalf("read %d: %q, want %q", read+1, got, want)
		}
		if renders != wantRenders {
			t.Fatalf("read %d: %d renders, want %d", read+1, renders, wantRenders)
		}
	}
	// A second view of the same query shares the cached materialisation,
	// and with it the kept bytes.
	w, err := queryStr(q, "entry 'PUB0001'")
	if err != nil {
		t.Fatal(err)
	}
	if got := string(w.Current().AppendRendered([]byte("> "), refuse)); got != want {
		t.Fatalf("second view: %q, want %q", got, want)
	}
	// A view with no materialisation renders its nil result, every time.
	var none View
	for range 3 {
		if got := string(none.Current().AppendRendered(nil, func(dst []byte, r *relstore.UnionResult) []byte {
			return fmt.Appendf(dst, "%v", r == nil)
		})); got != "true" {
			t.Fatalf("no materialisation: %q", got)
		}
	}
}

// TestMatCacheKeyMatchesFmt pins matCacheKey's bytes to the fmt rendering
// it replaced ("%d|" then "%d:%s" per keyword): the materialisation cache
// picks a key's shard from them, so a changed byte moves queries between
// shards. Keywords are drawn from an alphabet with the separators, digits,
// multi-byte runes and the empty string, over lengths that overflow
// matCacheKey's stack buffer.
func TestMatCacheKeyMatchesFmt(t *testing.T) {
	oracle := func(keywords []string, k int) string {
		s := fmt.Sprintf("%d|", k)
		for _, kw := range keywords {
			s += fmt.Sprintf("%d:%s", len(kw), kw)
		}
		return s
	}
	alphabet := []string{"a", "Z", "0", "7", "|", ":", " ", "'", "é", "基", "🙂", "GO:0001000"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		keywords := make([]string, rng.Intn(6))
		for i := range keywords {
			var kw string
			for n := rng.Intn(4) * rng.Intn(12); n > 0; n-- {
				kw += alphabet[rng.Intn(len(alphabet))]
			}
			keywords[i] = kw
		}
		k := []int{0, 2, 5, 10, 123, -1}[rng.Intn(6)]
		if got, want := matCacheKey(keywords, k), oracle(keywords, k); got != want {
			t.Fatalf("matCacheKey(%q, %d) = %q, want %q", keywords, k, got, want)
		}
	}
}
