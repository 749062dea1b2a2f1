package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"qint/internal/learning"
	"qint/internal/matcher"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// journalTable is a one-table source the write tests register.
func journalTable(t *testing.T, source string) *relstore.Table {
	t.Helper()
	return mkTable(t,
		&relstore.Relation{Source: source, Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
		[][]string{{"PUB0001", "Nature"}, {"PUB0002", "Science"}, {"PUB0003", "Cell"}})
}

// assertBuilderPublished fails unless the builder is exactly the published
// generation: same catalog, corpus and graph snapshot, and no pending
// associations.
func assertBuilderPublished(t *testing.T, q *Q, what string) {
	t.Helper()
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	st := q.state()
	if q.catalog != st.cat || q.catalog.NumRelations() != st.cat.NumRelations() {
		t.Errorf("%s: builder catalog has %d relations, published %d", what, q.catalog.NumRelations(), st.cat.NumRelations())
	}
	if q.corpus != st.corpus {
		t.Errorf("%s: builder corpus is not the published one", what)
	}
	if q.graph.Snapshot() != st.graph {
		t.Errorf("%s: builder graph (%d edges) is not the published snapshot (%d edges)", what, q.graph.NumEdges(), st.graph.NumEdges())
	}
	if len(q.touched) != 0 {
		t.Errorf("%s: %d associations still pending", what, len(q.touched))
	}
}

// TestRefusedWriteIsInvisible closes the WAL under a durable engine: every
// writer must return the append error, leave the epoch where it was, and
// roll the builder back to the published generation, so no later write can
// publish state that was never logged.
func TestRefusedWriteIsInvisible(t *testing.T) {
	q := reopen(t, durableOpts(t))
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	v, err := q.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v.Current().Trees); n < 2 {
		t.Fatalf("view has %d trees, want at least 2 to give feedback on", n)
	}
	view := fingerprintView(v)
	if err := q.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	epoch := q.Epoch()
	for _, wr := range refusableWrites(t, q, v) {
		if err := wr.do(); err == nil {
			t.Errorf("%s: succeeded with the WAL closed", wr.name)
		}
		if got := q.Epoch(); got != epoch {
			t.Errorf("%s: epoch %d -> %d after a refused write", wr.name, epoch, got)
		}
		assertBuilderPublished(t, q, wr.name)
		if got := fingerprintView(v); got != view {
			t.Errorf("%s: view changed after a refused write", wr.name)
		}
	}
}

// namedWrite is one engine write, named for failure messages.
type namedWrite struct {
	name string
	do   func() error
}

// refusableWrites is one call of every logged writer on q, for the tests
// that refuse writes: each would change the fixture engine, and feedback
// favours the second tree of v.
func refusableWrites(t *testing.T, q *Q, v *View) []namedWrite {
	w := q.CurrentGraph().Weights().Clone()
	w["default"] += 1
	return []namedWrite{
		{"AddTables", func() error { return q.AddTables(journalTable(t, "jrnl")) }},
		{"RegisterSource", func() error {
			_, err := q.RegisterSource([]*relstore.Table{journalTable(t, "jrnl2")}, Exhaustive)
			return err
		}},
		{"feedback", func() error {
			m := v.Current()
			return q.FeedbackFavorTree(m, m.Trees[1])
		}},
		{"AddAssociations", func() error {
			return q.AddAssociations(learning.Vector{"handcoded": 1}, [2]relstore.AttrRef{
				{Relation: "go.term", Attr: "name"}, {Relation: "ip.entry", Attr: "name"}})
		}},
		{"SetWeights", func() error { return q.SetWeights(w) }},
		{"AlignAllPairs", func() error { _, err := q.AlignAllPairs(); return err }},
	}
}

// TestWriteAfterCloseRefused: after Close, every write to a durable engine
// returns ErrClosed and changes nothing, so no write is acknowledged that a
// restart would lose; the directory reopens to exactly the state at Close.
// An in-memory engine keeps accepting writes after Close.
func TestWriteAfterCloseRefused(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	v, err := q.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v.Current().Trees); n < 2 {
		t.Fatalf("view has %d trees, want at least 2 to give feedback on", n)
	}
	want, epoch := fingerprintEngine(q), q.Epoch()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for _, wr := range refusableWrites(t, q, v) {
		if err := wr.do(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: %v, want ErrClosed", wr.name, err)
		}
		if got := q.Epoch(); got != epoch {
			t.Errorf("%s: epoch %d -> %d after Close", wr.name, epoch, got)
		}
		assertBuilderPublished(t, q, wr.name)
	}
	if err := q.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if got := fingerprintEngine(reopen(t, opts)); got != want {
		t.Fatalf("reopened store differs from the engine at Close:\nwant:\n%s\ngot:\n%s", want, got)
	}

	mem := newFixtureQ(t, false)
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.AddTables(journalTable(t, "jrnl")); err != nil {
		t.Errorf("in-memory AddTables after Close: %v", err)
	}
}

// taggingMatcher endorses every same-named attribute pair; it exists so
// TestEveryWriteRefreshesViews can register a matcher whose weights are new.
type taggingMatcher struct{}

func (taggingMatcher) Name() string { return "tagging" }

func (taggingMatcher) Match(_ *relstore.Catalog, a, b *relstore.Relation) []matcher.Alignment {
	var out []matcher.Alignment
	for _, x := range a.Attributes {
		for _, y := range b.Attributes {
			if x.Name == y.Name {
				out = append(out, matcher.Alignment{
					A:          relstore.AttrRef{Relation: a.QualifiedName(), Attr: x.Name},
					B:          relstore.AttrRef{Relation: b.QualifiedName(), Attr: y.Name},
					Confidence: 0.9,
				})
			}
		}
	}
	return out
}

// TestEveryWriteRefreshesViews: after each public writer, every persistent
// view is at the engine's epoch and shows exactly what an ephemeral query
// for its keywords shows.
func TestEveryWriteRefreshesViews(t *testing.T) {
	q := New(DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	v, err := q.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(Request{Keywords: []string{"nucleus", "entry"}, K: 3}); err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		for _, pv := range q.Views() {
			if got, want := pv.Current().Epoch, q.Epoch(); got != want {
				t.Errorf("after %s: view %v at epoch %d, engine at %d", what, pv.Keywords, got, want)
			}
			eph, err := q.Query(Request{Keywords: pv.Keywords, K: pv.K, Ephemeral: true})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprintView(pv), fingerprintView(eph); got != want {
				t.Errorf("after %s: view %v disagrees with an ephemeral query\nview:\n%s\nephemeral:\n%s", what, pv.Keywords, got, want)
			}
		}
	}
	writes := []struct {
		name string
		do   func() error
	}{
		{"AddTables", func() error { return q.AddTables(journalTable(t, "jrnl")) }},
		{"AddAssociations", func() error {
			return q.AddAssociations(learning.Vector{"handcoded": 1}, [2]relstore.AttrRef{
				{Relation: "go.term", Attr: "acc"}, {Relation: "ip.interpro2go", Attr: "go_id"}})
		}},
		{"AlignAllPairs", func() error { _, err := q.AlignAllPairs(); return err }},
		{"RegisterSource", func() error {
			_, err := q.RegisterSource([]*relstore.Table{journalTable(t, "jrnl2")}, ViewBased)
			return err
		}},
		{"feedback", func() error {
			m := v.Current()
			return q.FeedbackFavorTree(m, m.Trees[len(m.Trees)-1])
		}},
		{"SetWeights", func() error {
			w := q.CurrentGraph().Weights().Clone()
			w["default"] += 0.5
			return q.SetWeights(w)
		}},
		{"AddMatcher", func() error { q.AddMatcher(taggingMatcher{}); return nil }},
	}
	for _, wr := range writes {
		epoch := q.Epoch()
		if err := wr.do(); err != nil {
			t.Fatalf("%s: %v", wr.name, err)
		}
		if q.Epoch() == epoch {
			t.Fatalf("%s did not publish a new generation", wr.name)
		}
		check(wr.name)
	}
}

// TestAddMatcherIdempotent: re-registering the matchers after Open — the
// documented restart protocol — installs nothing, so the graph snapshot,
// the epoch and the restored views stay exactly as Open left them.
func TestAddMatcherIdempotent(t *testing.T) {
	opts := durableOpts(t)
	q := reopen(t, opts)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := openDurable(t, opts, manualCheckpoints)
	t.Cleanup(func() { q2.Close() })
	epoch, graph := q2.Epoch(), q2.CurrentGraph()
	for range 2 {
		q2.AddMatcher(meta.New())
		q2.AddMatcher(mad.New())
	}
	if got := q2.Epoch(); got != epoch {
		t.Errorf("re-registering matchers moved the epoch %d -> %d", epoch, got)
	}
	if q2.CurrentGraph() != graph {
		t.Error("re-registering matchers replaced the graph snapshot")
	}
	for _, v := range q2.Views() {
		if got := v.Current().Epoch; got != q2.Epoch() {
			t.Errorf("restored view %v at epoch %d, engine at %d", v.Keywords, got, q2.Epoch())
		}
	}
}

// TestCloseRacingWrites: writes racing two concurrent Close calls either
// commit before the close, and are there after a reopen, or return
// ErrClosed and are not.
func TestCloseRacingWrites(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	tables := make([]*relstore.Table, 8)
	for i := range tables {
		tables[i] = journalTable(t, fmt.Sprintf("jrnl%d", i))
	}
	acked := make([]bool, len(tables))
	var wg sync.WaitGroup
	for i, tb := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := q.AddTables(tb)
			acked[i] = err == nil
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("AddTables %d: %v, want nil or ErrClosed", i, err)
			}
		}()
	}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	cat := reopen(t, opts).CurrentCatalog()
	for i, ok := range acked {
		if got := cat.Relation(fmt.Sprintf("jrnl%d.journal", i)) != nil; got != ok {
			t.Errorf("source %d: acknowledged %v, present after reopen %v", i, ok, got)
		}
	}
}
