package core

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// durableOpts returns options rooted in a fresh temp dir.
func durableOpts(t *testing.T) Options {
	t.Helper()
	opts := DefaultOptions()
	opts.DataDir = t.TempDir()
	return opts
}

// manualCheckpoints is the WAL checkpoint threshold under which the log
// folds only on Checkpoint and Close.
const manualCheckpoints = -1

// openDurable opens opts.DataDir and sets the WAL checkpoint threshold
// white-box: manualCheckpoints lets the test decide exactly when the WAL
// folds, 1 folds it in the background after every write.
func openDurable(t *testing.T, opts Options, walLimit int64) *Q {
	t.Helper()
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	q.writerMu.Lock()
	q.persist.limit = walLimit
	q.writerMu.Unlock()
	return q
}

// fingerprintQ renders everything restart equivalence cares about: the
// catalog, the graph's weights and edges, and every view's materialisation.
func fingerprintQ(q *Q) string {
	var b strings.Builder
	b.WriteString("relations:")
	for _, r := range q.CurrentCatalog().Relations() {
		b.WriteString(" " + r.QualifiedName())
	}
	b.WriteString("\nassociations:")
	for _, a := range q.CurrentGraph().AssociationList() {
		fmt.Fprintf(&b, " %s~%s=%.12f", a.A, a.B, a.Cost)
	}
	b.WriteString("\n")
	for _, v := range q.Views() {
		b.WriteString(fingerprintView(v))
	}
	return b.String()
}

// driveMutations applies the same mutation sequence to any Q: initial
// tables, a view, a hand-coded association, a registration through the
// matchers, feedback, and whole-catalog alignment. The view exists before
// every write after the tables, so each write must refresh it. The durable
// tests replay this against in-memory and durable instances and require
// identical outcomes.
func driveMutations(t *testing.T, q *Q) {
	t.Helper()
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	v, err := q.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	newTables := []*relstore.Table{mkTable(t,
		&relstore.Relation{Source: "jrnl", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
		[][]string{{"PUB0001", "Nature"}, {"PUB0002", "Science"}, {"PUB0003", "Cell"}})}
	if _, err := q.RegisterSource(newTables, Exhaustive); err != nil {
		t.Fatal(err)
	}
	if len(v.Trees()) >= 2 {
		if err := q.FeedbackFavorTree(v, v.Trees()[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.AlignAllPairs(); err != nil {
		t.Fatal(err)
	}
}

// reopen closes nothing (crash semantics are exercised elsewhere) — it just
// Opens the directory again and re-registers the matchers, the documented
// restart protocol.
func reopen(t *testing.T, opts Options) *Q {
	t.Helper()
	q := openDurable(t, opts, manualCheckpoints)
	t.Cleanup(func() { q.Close() })
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	return q
}

// TestRestartEquivalence is the acceptance gate: an instance restarted via
// storage.Open — whether from a pure WAL tail, a pure snapshot, or a
// snapshot plus tail — is byte-identical to one rebuilt from scratch by
// replaying the same mutations in memory.
func TestRestartEquivalence(t *testing.T) {
	// Reference: the same mutations applied to a plain in-memory Q.
	ref := New(DefaultOptions())
	ref.AddMatcher(meta.New())
	ref.AddMatcher(mad.New())
	driveMutations(t, ref)
	want := fingerprintQ(ref)

	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	driveMutations(t, q)
	if got := fingerprintQ(q); got != want {
		t.Fatalf("durable instance diverged from in-memory before any restart:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Restart 1: everything is still in the WAL tail (no checkpoint ran).
	// View DEFINITIONS persist via checkpoints, not the WAL (queries are
	// pure reads and must not fsync), so a crash-restart loses the view —
	// but recreating it over the replayed graph must reproduce it exactly.
	if err := q.persist.store.Close(); err != nil { // simulate a crash: no final checkpoint
		t.Fatal(err)
	}
	q2 := reopen(t, opts)
	if _, err := q2.Query(Request{Keywords: []string{"plasma membrane", "Kringle domain"}, K: 4}); err != nil {
		t.Fatal(err)
	}
	if got := fingerprintQ(q2); got != want {
		t.Fatalf("restart from WAL tail diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Restart 2: fold the WAL into a snapshot, then restart — a pure
	// snapshot load, no replay.
	if err := q2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := q2.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	q3 := reopen(t, opts)
	if got := fingerprintQ(q3); got != want {
		t.Fatalf("restart from snapshot diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Restart 3: snapshot + a fresh tail (feedback after the checkpoint).
	v := q3.Views()[0]
	if len(v.Trees()) >= 2 {
		if err := q3.FeedbackFavorTree(v, v.Trees()[1]); err != nil {
			t.Fatal(err)
		}
	}
	want3 := fingerprintQ(q3)
	if err := q3.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	q4 := reopen(t, opts)
	if got := fingerprintQ(q4); got != want3 {
		t.Fatalf("restart from snapshot+tail diverged:\nwant:\n%s\ngot:\n%s", want3, got)
	}
}

// TestDurableCleanShutdown: Close checkpoints, so the next Open is a pure
// snapshot load (empty WAL) and view definitions survive.
func TestDurableCleanShutdown(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	driveMutations(t, q)
	want := fingerprintQ(q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := reopen(t, opts)
	if q2.persist.store.WALSize() != 0 {
		t.Errorf("WAL not empty after clean shutdown + reopen: %d bytes", q2.persist.store.WALSize())
	}
	if got := fingerprintQ(q2); got != want {
		t.Fatalf("clean restart diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The reopened instance keeps working durably.
	if _, err := q2.Query(Request{Keywords: []string{"nucleus", "entry"}, K: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCrashInjection truncates the store's WAL at EVERY byte length
// between a committed prefix and the full log, reopening each time: Open
// must never fail, and must recover a prefix of the mutation history — the
// tables either absent or fully present, never torn.
func TestDurableCrashInjection(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	fullRelations := q.CurrentCatalog().NumRelations()
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	walPath := q.persist.store.WALPath()
	if err := q.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n <= len(logBytes); n++ {
		dir := t.TempDir()
		// Clone the store directory with the WAL cut at n bytes.
		entries, err := os.ReadDir(opts.DataDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(opts.DataDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Join(opts.DataDir, e.Name()) == walPath {
				data = data[:n]
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := opts
		o.DataDir = dir
		qc, err := Open(o)
		if err != nil {
			t.Fatalf("truncated at %d/%d bytes: Open failed: %v", n, len(logBytes), err)
		}
		got := qc.CurrentCatalog().NumRelations()
		if got != 0 && got != fullRelations {
			t.Fatalf("truncated at %d bytes: %d relations — a torn AddTables surfaced (want 0 or %d)",
				n, got, fullRelations)
		}
		// Whatever prefix was recovered, the instance stays writable.
		if got == 0 {
			if err := qc.AddTables(fixtureTables(t)...); err != nil {
				t.Fatalf("truncated at %d bytes: recovered store not writable: %v", n, err)
			}
		}
		if err := qc.Close(); err != nil {
			t.Fatalf("truncated at %d bytes: close: %v", n, err)
		}
	}
}

// TestDurableCheckpointFold: after a checkpoint the WAL is empty, the
// snapshot carries the whole state, and mutations keep appending to the new
// log.
func TestDurableCheckpointFold(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	defer q.Close()
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if q.persist.store.WALSize() == 0 {
		t.Fatal("AddTables should have appended to the WAL")
	}
	preEpoch := q.WALEpoch()
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := q.persist.store.WALSize(); got != 0 {
		t.Errorf("WAL size after checkpoint = %d, want 0", got)
	}
	if got := q.WALEpoch(); got != preEpoch {
		t.Errorf("checkpoint must not advance the epoch: %d -> %d", preEpoch, got)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	if q.persist.store.WALSize() == 0 {
		t.Error("post-checkpoint mutation should append to the fresh WAL")
	}
	if got := q.WALEpoch(); got != preEpoch+1 {
		t.Errorf("epoch after one post-checkpoint mutation = %d, want %d", got, preEpoch+1)
	}
}

// TestOpenRequiresDataDir and the in-memory no-ops.
func TestOpenRequiresDataDir(t *testing.T) {
	if _, err := Open(DefaultOptions()); err == nil {
		t.Error("Open without DataDir should fail")
	}
	q := New(DefaultOptions())
	if err := q.Checkpoint(); err != nil {
		t.Errorf("in-memory Checkpoint should be a no-op: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Errorf("in-memory Close should be a no-op: %v", err)
	}
	if got := q.WALEpoch(); got != 0 {
		t.Errorf("in-memory WALEpoch = %d, want 0", got)
	}
}

// TestDurableBackgroundCheckpoint: with a tiny threshold, the background
// checkpointer folds the WAL without any explicit Checkpoint call.
func TestDurableBackgroundCheckpoint(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, 1) // every mutation crosses the threshold
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	// Close stops the checkpointer and takes a final checkpoint; whatever
	// interleaving happened, the directory must reopen to the same state.
	want := fingerprintQ(q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := reopen(t, opts)
	if got := fingerprintQ(q2); got != want {
		t.Fatalf("background-checkpointed store diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCheckpointTracksViewIDs: the checkpoint-skip test fingerprints view
// IDs and the next ID, not just (keywords, k). Deleting a view and
// re-creating the same keywords, or creating and deleting one, changes what
// the snapshot must carry even though the keyword lists look the same; a
// skipped checkpoint would bring back the deleted ID on restart.
func TestCheckpointTracksViewIDs(t *testing.T) {
	opts := durableOpts(t)
	q := reopen(t, opts)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	kws := []string{"plasma membrane", "Kringle domain"}
	if _, err := q.Query(Request{Keywords: kws}); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	q.DropView(0)
	if v, err := q.Query(Request{Keywords: kws}); err != nil {
		t.Fatal(err)
	} else if v.ID != 1 {
		t.Fatalf("re-created view has ID %d, want 1", v.ID)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := reopen(t, opts)
	if got := viewIDs(q2); !reflect.DeepEqual(got, []int64{1}) {
		t.Fatalf("view IDs after restart = %v, want [1]", got)
	}
	// Create and delete one: only the next ID changed.
	if v, err := q2.Query(Request{Keywords: kws}); err != nil || !q2.DropView(v.ID) {
		t.Fatalf("create and drop: %v", err)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}

	q3 := reopen(t, opts)
	if v, err := q3.Query(Request{Keywords: kws}); err != nil {
		t.Fatal(err)
	} else if v.ID != 3 {
		t.Fatalf("view after restart has ID %d, want 3", v.ID)
	}
}

// TestFeedbackCheckpointsReproducible: two engines driven through one op
// sequence that includes feedback write byte-identical checkpoints. Every
// sum of the MIRA update is taken in key order, so the learned weights —
// which the snapshot stores — agree to the last bit.
func TestFeedbackCheckpointsReproducible(t *testing.T) {
	snapshots := func() map[string][]byte {
		opts := durableOpts(t)
		q := openDurable(t, opts, manualCheckpoints)
		q.AddMatcher(meta.New())
		q.AddMatcher(mad.New())
		driveMutations(t, q)
		v := q.Views()[0]
		for range 4 {
			trees := v.Trees()
			if len(trees) < 2 {
				t.Fatalf("view has %d trees, want at least 2 to give feedback on", len(trees))
			}
			if err := q.FeedbackFavorTree(v, trees[len(trees)-1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(opts.DataDir, "gen-*.snap"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no checkpoint written: %v %v", files, err)
		}
		out := make(map[string][]byte)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(f)] = b
		}
		return out
	}
	a, b := snapshots(), snapshots()
	if !reflect.DeepEqual(slices.Sorted(maps.Keys(a)), slices.Sorted(maps.Keys(b))) {
		t.Fatalf("checkpoints %v and %v", slices.Sorted(maps.Keys(a)), slices.Sorted(maps.Keys(b)))
	}
	for name, x := range a {
		if !bytes.Equal(x, b[name]) {
			t.Errorf("%s differs between two runs of the same op sequence", name)
		}
	}
}
