package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"qint/internal/binio"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
	"qint/internal/steiner"
	"qint/internal/storage"
	"qint/internal/text"
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
	if m := v.Current(); len(m.Trees) >= 2 {
		if err := q.FeedbackFavorTree(m, m.Trees[1]); err != nil {
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

// TestDurableCleanShutdown: Close checkpoints, so the next Open is a pure
// snapshot load (empty WAL) and view definitions survive.
func TestDurableCleanShutdown(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	driveMutations(t, q)
	want := fingerprintEngine(q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := reopen(t, opts)
	if q2.persist.store.WALSize() != 0 {
		t.Errorf("WAL not empty after clean shutdown + reopen: %d bytes", q2.persist.store.WALSize())
	}
	if got := fingerprintEngine(q2); got != want {
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
// tables either absent or fully present, never torn. The store's files are
// read once; each length copies them into its own directory and runs as a
// parallel subtest, so that the reopens' fsyncs overlap.
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
	entries, err := os.ReadDir(opts.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	var walName string
	for _, e := range entries {
		path := filepath.Join(opts.DataDir, e.Name())
		if files[e.Name()], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if path == walPath {
			walName = e.Name()
		}
	}
	logBytes := files[walName]
	if walName == "" || len(logBytes) == 0 {
		t.Fatalf("no WAL at %s among the store's files", walPath)
	}

	for n := 0; n <= len(logBytes); n++ {
		t.Run(fmt.Sprintf("wal%d", n), func(t *testing.T) {
			t.Parallel()
			// Clone the store directory with the WAL cut at n bytes.
			dir := t.TempDir()
			for name, data := range files {
				if name == walName {
					data = data[:n]
				}
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
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
		})
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
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	// Close stops the checkpointer and takes a final checkpoint; whatever
	// interleaving happened, the directory must reopen to the same state.
	want := fingerprintEngine(q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := reopen(t, opts)
	if got := fingerprintEngine(q2); got != want {
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
			m := v.Current()
			trees := m.Trees
			if len(trees) < 2 {
				t.Fatalf("view has %d trees, want at least 2 to give feedback on", len(trees))
			}
			if err := q.FeedbackFavorTree(m, trees[len(trees)-1]); err != nil {
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

// TestReplayedFeedbackMatchesLive: a WAL tail of K feedback records replays
// with the edges repriced once, after the whole tail, yet leaves every edge
// cost bitwise and every view's answers equal to the live engine's, which
// repriced after each feedback.
func TestReplayedFeedbackMatchesLive(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	driveMutations(t, q)
	if err := q.Checkpoint(); err != nil { // the view definition persists; the feedback below is tail
		t.Fatal(err)
	}
	const K = 6
	changed := 0
	for k := 0; k < K; k++ {
		m := q.Views()[0].Current()
		trees := m.Trees
		if len(trees) < 2 {
			t.Fatalf("view has %d trees, want at least 2 to give feedback on", len(trees))
		}
		before := maps.Clone(q.CurrentGraph().Weights())
		if err := q.FeedbackFavorTree(m, trees[1+k%(len(trees)-1)]); err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(before, q.CurrentGraph().Weights()) {
			changed++
		}
	}
	if changed < 2 {
		t.Fatalf("%d of %d feedbacks changed the weights: the tail exercises nothing", changed, K)
	}
	live := q.CurrentGraph()
	want := fingerprintEngine(q)
	if err := q.persist.store.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}

	q2 := reopen(t, opts)
	got := q2.CurrentGraph()
	if !maps.Equal(got.Weights(), live.Weights()) {
		t.Fatalf("replayed weights diverged:\n%v\n%v", got.Weights(), live.Weights())
	}
	if got.NumEdges() != live.NumEdges() {
		t.Fatalf("%d edges replayed, %d live", got.NumEdges(), live.NumEdges())
	}
	for id := range live.NumEdges() {
		e := steiner.EdgeID(id)
		if a, b := got.Cost(e), live.Cost(e); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("edge %d: replayed cost %v, live %v", id, a, b)
		}
	}
	if f := fingerprintEngine(q2); f != want {
		t.Fatalf("replayed views diverged:\nwant:\n%s\ngot:\n%s", want, f)
	}
}

// TestRestoreCountsNoQueries: reopening a directory rematerialises its
// views without counting them in qint_queries_total, and a restore on a
// four-wide engine, which rematerialises the views in parallel, gives each
// view the fingerprint it had before the restart and the one a one-wide
// (serial) restore gives it.
func TestRestoreCountsNoQueries(t *testing.T) {
	opts := durableOpts(t)
	q := reopen(t, opts)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	// The last view repeats the first, so two restored views share one
	// materialisation.
	for _, s := range []string{"'plasma membrane' 'Kringle domain'", "entry 'PUB0001'", "'nucleus' entry", "'plasma membrane' 'Kringle domain'"} {
		if _, err := queryStr(q, s); err != nil {
			t.Fatal(err)
		}
	}
	fingerprints := func(q *Q) []string {
		var out []string
		for _, v := range q.Views() {
			out = append(out, fmt.Sprintf("id=%d %s", v.ID, fingerprintView(v)))
		}
		return out
	}
	want := fingerprints(q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(width)
		r, err := Open(opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if n := r.metrics.queries.Load(); n != 0 {
			t.Errorf("width %d: qint_queries_total = %d after a reopen, want 0", width, n)
		}
		if got := fingerprints(r); !slices.Equal(got, want) {
			t.Errorf("width %d: restored views differ:\n got %q\nwant %q", width, got, want)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRebuildsRetiredSegments: a data directory whose snapshot
// carries its value index in a retired layout, QSEGb1 or QSEGb2, still
// opens. The restore treats that section as absent and indexes the
// snapshot's tables from their rows, with the tables the WAL tail replays,
// and the reopened engine answers byte-identically to the live one. Any
// other malformed segments section still fails Open.
func TestRestoreRebuildsRetiredSegments(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	driveMutations(t, q)
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	retired := map[string][]byte{
		"QSEGb1": segmentsV1(t, q.CurrentCatalog()),
		"QSEGb2": segmentsV2(t, q.CurrentCatalog()),
	}
	if err := q.AddTables(journalTable(t, "tail")); err != nil { // replayed from the WAL
		t.Fatal(err)
	}
	want := fingerprintEngine(q)
	probes := []string{"'plasma membrane' 'Nature'", "'PUB0002' entry", "'nucleus' 'Kringle domain'"}
	var wantProbes []string
	for _, s := range probes {
		v, err := q.Query(Request{Keywords: ParseKeywords(s), Ephemeral: true})
		if err != nil {
			t.Fatal(err)
		}
		wantProbes = append(wantProbes, fingerprintView(v))
	}
	snapPath := filepath.Join(opts.DataDir, fmt.Sprintf("gen-%d.snap", q.persist.store.SnapshotEpoch()))
	if err := q.persist.store.Close(); err != nil { // crash: the tail stays in the WAL
		t.Fatal(err)
	}
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}

	// withSegments copies the data directory with the snapshot's segments
	// section replaced by sec.
	withSegments := func(sec []byte) Options {
		dir := t.TempDir()
		entries, err := os.ReadDir(opts.DataDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(opts.DataDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == filepath.Base(snapPath) {
				data = replaceSection(t, data, "segments", sec)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := opts
		o.DataDir = dir
		return o
	}

	for _, layout := range slices.Sorted(maps.Keys(retired)) {
		q2 := reopen(t, withSegments(retired[layout]))
		if got := fingerprintEngine(q2); got != want {
			t.Fatalf("reopened over a %s section, the engine diverged:\nwant:\n%s\ngot:\n%s", layout, want, got)
		}
		for i, s := range probes {
			v, err := q2.Query(Request{Keywords: ParseKeywords(s), Ephemeral: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintView(v); got != wantProbes[i] {
				t.Errorf("%s: query %s after the reopen:\ngot:\n%s\nwant:\n%s", layout, s, got, wantProbes[i])
			}
		}
		for _, rel := range q2.CurrentCatalog().Relations() {
			for _, a := range rel.Attributes {
				ref := relstore.AttrRef{Relation: rel.QualifiedName(), Attr: a.Name}
				if got, want := q2.CurrentCatalog().Values(ref), q.CurrentCatalog().Values(ref); !slices.Equal(got, want) {
					t.Errorf("%s: Values(%v) = %q after the reopen, want %q", layout, ref, got, want)
				}
			}
		}
	}

	valid, ok := containerSection(t, snap, "segments")
	if !ok {
		t.Fatal("the snapshot holds no segments section")
	}
	for name, sec := range map[string][]byte{
		"unknown layout": []byte("QSEGb9\n\n\x00"),
		"truncated":      valid[:len(valid)-1],
		"trailing byte":  append(slices.Clone(valid), 0),
	} {
		if r, err := Open(withSegments(sec)); err == nil {
			r.Close()
			t.Errorf("%s segments section: Open succeeded", name)
		}
	}
}

// retiredSegment is one table's value index as the retired segment
// layouts wrote it, rebuilt from the catalog's public surface: the
// attribute span offsets, every distinct value with its normalised form,
// first row and row count, attribute by attribute in ascending order, and
// the trigram and whole-token posting lists under their string keys.
type retiredSegment struct {
	rel           *relstore.Relation
	starts        []int
	entries       []retiredEntry
	grams, tokens map[string][]int
}

type retiredEntry struct {
	val, norm string
	row, rows int
}

// retiredSegments rebuilds the value index of every table of cat, in
// registration order.
func retiredSegments(cat *relstore.Catalog) []retiredSegment {
	var segs []retiredSegment
	for _, rel := range cat.Relations() {
		qn := rel.QualifiedName()
		s := retiredSegment{rel: rel, starts: []int{0}, grams: make(map[string][]int), tokens: make(map[string][]int)}
		for _, a := range rel.Attributes {
			first, rows := make(map[string]int), make(map[string]int)
			for i, v := range cat.Table(qn).Column(a.Name) {
				if rows[v] == 0 {
					first[v] = i
				}
				rows[v]++
			}
			for _, v := range cat.Values(relstore.AttrRef{Relation: qn, Attr: a.Name}) {
				s.entries = append(s.entries, retiredEntry{val: v, norm: text.Normalize(v), row: first[v], rows: rows[v]})
			}
			s.starts = append(s.starts, len(s.entries))
		}
		post := func(m map[string][]int, key string, id int) {
			if l := m[key]; len(l) == 0 || l[len(l)-1] != id {
				m[key] = append(l, id)
			}
		}
		for id, e := range s.entries {
			r := []rune(e.norm)
			for i := 0; i+3 <= len(r); i++ {
				post(s.grams, string(r[i:i+3]), id)
			}
			for _, tok := range strings.Fields(e.norm) {
				post(s.tokens, tok, id)
			}
		}
		segs = append(segs, s)
	}
	return segs
}

// writeIDs writes an ascending id list as relstore's codecs do: its
// length, then the ids as deltas.
func writeIDs(b *binio.Writer, ids []int) {
	b.Uvarint(uint64(len(ids)))
	prev := 0
	for _, id := range ids {
		b.Uvarint(uint64(id - prev))
		prev = id
	}
}

// segmentsV1 encodes cat's value index in the retired QSEGb1 layout, as
// relstore's saveSegmentsV1Oracle writes it: per table the relation and
// attribute names, the attribute span offsets, every distinct value with
// its normalised form and row count, then the trigram and token posting
// lists under their string keys, keys ascending.
func segmentsV1(t *testing.T, cat *relstore.Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := binio.NewWriter(&buf)
	b.Raw("QSEGb1\n\n")
	segs := retiredSegments(cat)
	b.Uvarint(uint64(len(segs)))
	for _, s := range segs {
		b.Str(s.rel.QualifiedName())
		b.Uvarint(uint64(len(s.rel.Attributes)))
		for _, a := range s.rel.Attributes {
			b.Str(a.Name)
		}
		for _, off := range s.starts {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.Str(e.val)
			b.Str(e.norm)
			b.Uvarint(uint64(e.rows))
		}
		for _, m := range []map[string][]int{s.grams, s.tokens} {
			b.Uvarint(uint64(len(m)))
			for _, k := range slices.Sorted(maps.Keys(m)) {
				b.Str(k)
				writeIDs(b, m[k])
			}
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// segmentsV2 encodes cat's value index in the retired QSEGb2 layout, as
// relstore's saveSegmentsV2Oracle writes it: per table its registration
// position and attribute span offsets, every distinct value as its first
// row and rows<<1 | normDiffers (and its normalised form when that
// differs), the trigram keys as deltas of their packed codes (three 21-bit
// runes) with their id lists, then the token keys as their id lists and the
// index of the key among the fields of its first entry's normalised form.
func segmentsV2(t *testing.T, cat *relstore.Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	b := binio.NewWriter(&buf)
	b.Raw("QSEGb2\n\n")
	segs := retiredSegments(cat)
	b.Uvarint(uint64(len(segs)))
	for pos, s := range segs {
		b.Uvarint(uint64(pos))
		for _, off := range s.starts {
			b.Uvarint(uint64(off))
		}
		b.Uvarint(uint64(len(s.entries)))
		for _, e := range s.entries {
			b.Uvarint(uint64(e.row))
			if e.norm != e.val {
				b.Uvarint(uint64(e.rows)<<1 | 1)
				b.Str(e.norm)
			} else {
				b.Uvarint(uint64(e.rows) << 1)
			}
		}
		b.Uvarint(uint64(len(s.grams)))
		prev := uint64(0)
		for _, g := range slices.Sorted(maps.Keys(s.grams)) {
			code := uint64(0)
			for _, r := range g {
				code = code<<21 | uint64(r)
			}
			b.Uvarint(code - prev)
			prev = code
			writeIDs(b, s.grams[g])
		}
		b.Uvarint(uint64(len(s.tokens)))
		for _, tok := range slices.Sorted(maps.Keys(s.tokens)) {
			ids := s.tokens[tok]
			writeIDs(b, ids)
			b.Uvarint(uint64(slices.Index(strings.Fields(s.entries[ids[0]].norm), tok)))
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// containerSection returns the named section of a checkpoint container.
func containerSection(t *testing.T, data []byte, name string) ([]byte, bool) {
	t.Helper()
	c, err := storage.OpenContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	return c.Section(name)
}

// TestRestoreRefusesOverCapView: a data dir whose meta section holds a view
// of more keywords than a query may carry fails Open with
// ErrTooManyKeywords, naming the view; the same dir with the view at the
// cap opens and restores it.
func TestRestoreRefusesOverCapView(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(Request{Keywords: []string{"title", "name"}}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// withView copies the data directory with every snapshot's meta section
	// holding one view of n keywords.
	withView := func(n int) Options {
		kws := make([]string, n)
		for i := range kws {
			kws[i] = []string{"title", "name"}[i%2]
		}
		sec, err := json.Marshal(snapMeta{Version: snapMetaVersion, Views: []viewSnap{{Keywords: kws, K: defaultK}}, NextID: 1})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		entries, err := os.ReadDir(opts.DataDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(opts.DataDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasSuffix(e.Name(), ".snap") {
				data = replaceSection(t, data, "meta", sec)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := opts
		o.DataDir = dir
		return o
	}
	over := steiner.MaxExactTerminals + 1
	if q, err := Open(withView(over)); !errors.Is(err, ErrTooManyKeywords) || !strings.Contains(err.Error(), "restore view") {
		if err == nil {
			q.Close()
		}
		t.Fatalf("Open over a %d-keyword view: err %v, want ErrTooManyKeywords naming the view", over, err)
	}
	q2 := reopen(t, withView(steiner.MaxExactTerminals))
	if vs := q2.Views(); len(vs) != 1 || len(vs[0].Keywords) != steiner.MaxExactTerminals || len(vs[0].Current().Result.Rows) == 0 {
		t.Fatalf("restored views %v, want one %d-keyword view with rows", vs, steiner.MaxExactTerminals)
	}
}

// replaceSection re-encodes a checkpoint container with the named
// section's payload replaced by sec and every other section kept.
func replaceSection(t *testing.T, data []byte, name string, sec []byte) []byte {
	t.Helper()
	c, err := storage.OpenContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cw, err := storage.NewContainerWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.SectionNames() {
		payload, _ := c.Section(n)
		if n == name {
			payload = sec
		}
		if err := cw.Section(n, func(w io.Writer) error { _, err := w.Write(payload); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
