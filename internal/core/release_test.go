package core

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"qint/internal/matcher/meta"
)

// TestSupersededGenerationIsReleased pins that a publish frees the
// generation it supersedes: once a registration, a feedback update and a
// query at the newest epoch have run, nothing in Q (the query caches, the
// refreshed views, the builder) still reaches the first generation's
// qstate, graph snapshot or corpus. A caller that still holds an ephemeral
// result keeps that result's graph snapshot alive, and only until it lets
// go.
func TestSupersededGenerationIsReleased(t *testing.T) {
	q := newFixtureQ(t, true)
	q.AddMatcher(meta.New())
	const query = "'plasma membrane' 'Kringle domain'"
	v, err := queryStr(q, query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(Request{Keywords: ParseKeywords("membrane"), Ephemeral: true}); err != nil {
		t.Fatal(err)
	}
	first := q.state()
	stRef, graphRef, corpusRef := weak.Make(first), weak.Make(first.graph), weak.Make(first.corpus)
	first = nil

	if _, err := q.RegisterSource(jrnlTables(t), Exhaustive); err != nil {
		t.Fatal(err)
	}
	// An ephemeral result of the registered generation, held across the
	// feedback that supersedes it.
	held, err := q.Query(Request{Keywords: ParseKeywords(query), Ephemeral: true})
	if err != nil {
		t.Fatal(err)
	}
	heldRef := weak.Make(held.mat.Load().ov.Snapshot())
	if err := q.FeedbackRow(v, 0, FeedbackValid); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(Request{Keywords: ParseKeywords(query), Ephemeral: true}); err != nil {
		t.Fatal(err)
	}
	if heldRef.Value() == q.state().graph {
		t.Fatal("feedback did not publish a new generation")
	}

	runtime.GC()
	if stRef.Value() != nil || graphRef.Value() != nil || corpusRef.Value() != nil {
		t.Errorf("first generation still reachable after two publishes: qstate %v, graph %v, corpus %v",
			stRef.Value() != nil, graphRef.Value() != nil, corpusRef.Value() != nil)
	}
	if heldRef.Value() == nil {
		t.Fatal("generation of a held ephemeral result was freed")
	}
	runtime.KeepAlive(held)

	held = nil
	runtime.GC()
	if heldRef.Value() != nil {
		t.Error("superseded generation still reachable after its last ephemeral result was dropped")
	}
	if got := q.CacheStats(); got.Expansion.LiveEpochs > 1 || got.Materialization.LiveEpochs > 1 {
		t.Errorf("cache live epochs = %d expansion, %d materialization; want at most 1 each",
			got.Expansion.LiveEpochs, got.Materialization.LiveEpochs)
	}
}

// TestParkedQueryAnswersFromItsGeneration parks a query inside its
// materialisation after it loaded generation e, publishes e+1 under it and
// lets it finish: it answers byte-identically to a cold engine at e, and
// caches nothing in e+1's caches, which belong to e+1 alone.
func TestParkedQueryAnswersFromItsGeneration(t *testing.T) {
	cached, cold := cachePair(t)
	const query = "'plasma membrane' term"
	want, err := cold.Query(Request{Keywords: ParseKeywords(query), Ephemeral: true})
	if err != nil {
		t.Fatal(err)
	}
	e := cached.Epoch()

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	cached.matComputeHook = func() {
		once.Do(func() {
			close(parked)
			<-release
		})
	}
	done := make(chan *View)
	go func() {
		v, err := cached.Query(Request{Keywords: ParseKeywords(query), Ephemeral: true})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	<-parked
	if _, err := cached.RegisterSource(cacheRegSource(t, 0), Exhaustive); err != nil {
		t.Fatal(err)
	}
	if cached.Epoch() == e {
		t.Fatal("the registration did not publish a new generation")
	}
	close(release)
	got := <-done
	if got == nil {
		t.FailNow()
	}
	if epoch := got.Current().Epoch; epoch != e {
		t.Errorf("parked query answered at epoch %d, want %d", epoch, e)
	}
	if fingerprintView(got) != fingerprintView(want) {
		t.Errorf("parked query diverged from the cold engine at epoch %d:\n%s\nvs\n%s", e, fingerprintView(got), fingerprintView(want))
	}
	if cs := cached.CacheStats(); cs.Materialization.Entries != 0 || cs.Expansion.Entries != 0 {
		t.Errorf("generation %d's caches hold %d materialisations and %d expansions of a query at %d",
			cached.Epoch(), cs.Materialization.Entries, cs.Expansion.Entries, e)
	}
}

// TestHeldResultReleasesItsCaches pins what a held ephemeral result keeps
// alive across the publish that supersedes its generation: its graph
// snapshot, which its provenance resolves against, but not that
// generation's query caches.
func TestHeldResultReleasesItsCaches(t *testing.T) {
	q := newFixtureQ(t, true)
	q.AddMatcher(meta.New())
	held, err := q.Query(Request{Keywords: ParseKeywords("'plasma membrane' 'Kringle domain'"), Ephemeral: true})
	if err != nil {
		t.Fatal(err)
	}
	qc := q.state().qc
	if qc == nil || qc.mat.Counters().Entries == 0 {
		t.Fatal("the query cached nothing in its generation's caches")
	}
	cachesRef, snapRef := weak.Make(qc), weak.Make(held.mat.Load().ov.Snapshot())
	qc = nil

	if _, err := q.RegisterSource(jrnlTables(t), Exhaustive); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if cachesRef.Value() != nil {
		t.Error("a superseded generation's query caches outlived it behind a held result")
	}
	if snapRef.Value() == nil {
		t.Error("the graph snapshot of a held ephemeral result was freed")
	}
	runtime.KeepAlive(held)
}
