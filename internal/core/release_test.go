package core

import (
	"runtime"
	"testing"
	"weak"

	"qint/internal/matcher/meta"
)

// TestSupersededGenerationIsReleased pins that a publish frees the
// generation it supersedes: once a registration, a feedback update and a
// query at the newest epoch have run, nothing in Q (the query caches, the
// refreshed views, the builder) still reaches the first generation's
// qstate, graph snapshot or corpus. A caller that still holds an ephemeral
// result keeps that result's generation alive, and only until it lets go.
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
	heldRef := weak.Make(held.mat.Load().st)
	if err := q.FeedbackRow(v, 0, FeedbackValid); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(Request{Keywords: ParseKeywords(query), Ephemeral: true}); err != nil {
		t.Fatal(err)
	}
	if heldRef.Value() == q.state() {
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
