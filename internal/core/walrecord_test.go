package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"qint/internal/binio"
	"qint/internal/learning"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/storage"
)

// loggedRecords drives the durable mutation sequence (tables, a hand-coded
// association, a matcher registration, feedback and whole-catalog
// alignment, whose edges carry features merged from both matchers) and
// returns the WAL records it committed.
func loggedRecords(t *testing.T) []storage.Record {
	t.Helper()
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	driveMutations(t, q)
	if err := q.persist.store.Close(); err != nil { // crash: the log stays
		t.Fatal(err)
	}
	st, err := storage.Open(opts.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.Records()
}

// handRecord is a record with every part: a table with foreign keys, one
// with no rows, edges whose features include their own indicator and
// names shared with other edges and with the delta, and a delta that sets
// and deletes.
func handRecord() walRecord {
	table := func(rel *relstore.Relation, rows [][]string) *relstore.Table {
		tb, err := relstore.NewTable(rel, rows)
		if err != nil {
			panic(err)
		}
		return tb
	}
	a := relstore.AttrRef{Relation: "s.r", Attr: "x"}
	b := relstore.AttrRef{Relation: "s.t", Attr: "y"}
	c := relstore.AttrRef{Relation: "u.v", Attr: "x"}
	return walRecord{
		Tables: []*relstore.Table{
			table(&relstore.Relation{Source: "s", Name: "r",
				Attributes:  []relstore.Attribute{{Name: "x"}, {Name: "z", Type: 1}},
				ForeignKeys: []relstore.ForeignKey{{FromAttr: "z", ToRelation: "s.t", ToAttr: "y"}}},
				[][]string{{"a", "b"}, {"", "c"}}),
			table(&relstore.Relation{Source: "s", Name: "t", Attributes: []relstore.Attribute{{Name: "y"}}}, nil),
		},
		Assocs: []walAssoc{
			{A: a, B: b, Features: learning.Vector{"default": 1, searchgraph.AssociationIndicator(a, b): 1, "matcher:meta:bin2": 1, "matcher:mad:bin4": 0.5}},
			{A: a, B: c, Features: learning.Vector{"default": 1, searchgraph.AssociationIndicator(a, c): 1, "rel:s.r": 1, "matcher:meta:absent": -0.25}},
			{A: b, B: c, Features: learning.Vector{}},
		},
		WeightDelta: searchgraph.WeightDelta{
			Set: map[string]float64{"default": 0.125, "kw": 2, "matcher:mad:bin4": -1},
			Del: []string{"edge:gone", "matcher:meta:absent"},
		},
	}
}

// TestWALRecordRoundTrip: every record a live engine logs, and a record
// with every part, decodes to what was logged and re-encodes to the same
// bytes.
func TestWALRecordRoundTrip(t *testing.T) {
	records := loggedRecords(t)
	kinds := map[string]bool{}
	for _, rec := range records {
		if rec.Kind != walKindMutation {
			t.Fatalf("epoch %d logged kind %d, want %d", rec.Epoch, rec.Kind, walKindMutation)
		}
		got, err := decodeWALRecord(rec.Payload)
		if err != nil {
			t.Fatalf("epoch %d: %v", rec.Epoch, err)
		}
		if again := encodeWALRecord(got); !bytes.Equal(again, rec.Payload) {
			t.Fatalf("epoch %d re-encodes to different bytes", rec.Epoch)
		}
		kinds["tables"] = kinds["tables"] || len(got.Tables) > 0
		kinds["assocs"] = kinds["assocs"] || len(got.Assocs) > 0
		kinds["set"] = kinds["set"] || len(got.Set) > 0
		for _, a := range got.Assocs {
			kinds["merged"] = kinds["merged"] || hasBins(a.Features, "meta") && hasBins(a.Features, "mad")
		}
	}
	for _, k := range []string{"tables", "assocs", "set", "merged"} {
		if !kinds[k] {
			t.Errorf("no logged record carries %s", k)
		}
	}

	want := handRecord()
	data := encodeWALRecord(want)
	got, err := decodeWALRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeWALRecord(got), data) {
		t.Fatal("the hand-built record re-encodes to different bytes")
	}
	for i, tb := range want.Tables {
		g := got.Tables[i]
		if !reflect.DeepEqual(g.Relation, tb.Relation) || len(g.Rows) != len(tb.Rows) {
			t.Errorf("table %d: got %+v with %d rows, want %+v with %d", i, g.Relation, len(g.Rows), tb.Relation, len(tb.Rows))
		}
		for j := range tb.Rows {
			if !slices.Equal(g.Rows[j], tb.Rows[j]) {
				t.Errorf("table %d row %d: got %q, want %q", i, j, g.Rows[j], tb.Rows[j])
			}
		}
	}
	if !reflect.DeepEqual(got.Assocs, want.Assocs) {
		t.Errorf("assocs: got %v, want %v", got.Assocs, want.Assocs)
	}
	if !maps.Equal(got.Set, want.Set) || !slices.Equal(got.Del, want.Del) {
		t.Errorf("delta: got %v, want %v", got.WeightDelta, want.WeightDelta)
	}
	// The edge's own indicator is not in the dictionary.
	if bytes.Contains(data, []byte(searchgraph.AssociationIndicator(want.Assocs[0].A, want.Assocs[0].B))) {
		t.Error("an edge's indicator is spelled out in the record")
	}
	// Deletions are written in name order whatever order they come in.
	shuffled := want
	shuffled.Del = []string{"matcher:meta:absent", "edge:gone"}
	if !bytes.Equal(encodeWALRecord(shuffled), data) {
		t.Error("the encoding depends on the order of Del")
	}
}

// hasBins reports whether features carry a confidence bin of matcher m.
func hasBins(features learning.Vector, m string) bool {
	for k := range features {
		if strings.HasPrefix(k, "matcher:"+m+":bin") {
			return true
		}
	}
	return false
}

// TestWALRecordRejects: the decoder refuses every structure the encoder
// does not write, one hostile structure per case, and every truncation.
func TestWALRecordRejects(t *testing.T) {
	// rec writes a record with no tables from its parts.
	rec := func(dict []string, body func(b *binio.Writer)) []byte {
		var buf bytes.Buffer
		b := binio.NewWriter(&buf)
		b.Uvarint(0) // tables
		b.Uvarint(uint64(len(dict)))
		for _, s := range dict {
			b.Str(s)
		}
		body(b)
		b.Flush()
		return buf.Bytes()
	}
	// edge writes one association r.a~r.b (dictionary 0, 1, 0, 2) with
	// the given (code, value) features, then an empty delta.
	edge := func(codes ...uint64) func(*binio.Writer) {
		return func(b *binio.Writer) {
			b.Uvarint(1)
			for _, id := range []uint64{0, 1, 0, 2} {
				b.Uvarint(id)
			}
			b.Uvarint(uint64(len(codes)))
			for _, c := range codes {
				b.Uvarint(c)
				b.Float64(1)
			}
			b.Uvarint(0)
			b.Uvarint(0)
		}
	}
	// set writes no edges and a delta that sets the given names.
	set := func(ids ...uint64) func(*binio.Writer) {
		return func(b *binio.Writer) {
			b.Uvarint(0)
			b.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				b.Uvarint(id)
				b.Float64(0.5)
			}
			b.Uvarint(0)
		}
	}
	del := func(ids ...uint64) func(*binio.Writer) {
		return func(b *binio.Writer) {
			b.Uvarint(0)
			b.Uvarint(0)
			b.Uvarint(uint64(len(ids)))
			for _, id := range ids {
				b.Uvarint(id)
			}
		}
	}
	ind := searchgraph.AssociationIndicator(relstore.AttrRef{Relation: "r", Attr: "a"}, relstore.AttrRef{Relation: "r", Attr: "b"})
	valid := rec([]string{"r", "a", "b", "f"}, edge(0, 4))
	if _, err := decodeWALRecord(valid); err != nil {
		t.Fatalf("the valid base case is refused: %v", err)
	}
	cases := map[string][]byte{
		"trailing byte":                append(slices.Clone(valid), 0),
		"repeated dictionary name":     rec([]string{"r", "a", "b", "r"}, edge(0, 4)),
		"unused dictionary name":       rec([]string{"r", "a", "b", "f", "g"}, edge(0, 4)),
		"name before its first use":    rec([]string{"r", "a", "b", "f", "g"}, edge(0, 5, 4)),
		"name index past dictionary":   rec([]string{"r", "a", "b"}, edge(0, 4)),
		"features out of order":        rec([]string{"r", "a", "b", "g", "f"}, edge(4, 5)),
		"feature repeated":             rec([]string{"r", "a", "b", "f"}, edge(4, 4)),
		"indicator through dictionary": rec([]string{"r", "a", "b", ind}, edge(4)),
		"weights out of order":         rec([]string{"b", "a"}, set(0, 1)),
		"deletions out of order":       rec([]string{"b", "a"}, del(0, 1)),
		"empty record":                 rec(nil, del()),
		"bad table":                    append([]byte{1}, valid[1:]...),
	}
	for i := range valid {
		cases[fmt.Sprintf("truncated at %d", i)] = valid[:i]
	}
	for name, data := range cases {
		if r, err := decodeWALRecord(data); err == nil {
			t.Errorf("%s: decoded %+v", name, r)
		}
	}
}

// FuzzWALRecord: any payload either fails to decode or re-encodes to
// itself, so a decoded record is exactly what its bytes say.
func FuzzWALRecord(f *testing.F) {
	f.Add(encodeWALRecord(handRecord()))
	f.Add(encodeWALRecord(walRecord{WeightDelta: searchgraph.WeightDelta{Del: []string{"x"}}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeWALRecord(data)
		if err != nil {
			return
		}
		if again := encodeWALRecord(rec); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, again)
		}
	})
}

// crashedDir commits writes to a fresh data directory and crashes it: its
// WAL holds the records of AddTables (epoch 1), a hand-coded association
// (2), another table (3) and another association (4).
func crashedDir(t *testing.T) Options {
	t.Helper()
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q, relstore.AttrRef{Relation: "go.term", Attr: "acc"}, relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	if err := q.AddTables(journalTable(t, "jrnl")); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q, relstore.AttrRef{Relation: "jrnl.journal", Attr: "pub_id"}, relstore.AttrRef{Relation: "ip.pub", Attr: "pub_id"})
	if err := q.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	return opts
}

// rewriteWAL replaces the directory's WAL with its records passed through
// edit, epochs kept.
func rewriteWAL(t *testing.T, opts Options, edit func(storage.Record) storage.Record) {
	t.Helper()
	st, err := storage.Open(opts.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	records, path := st.Records(), st.WALPath()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	w, err := storage.CreateWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, rec := range records {
		if err := w.Append(edit(rec)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesJSONRecord: a WAL record of the retired JSON kind fails
// Open with an error that names it, and a directory closed cleanly — its
// WAL empty — opens.
func TestOpenRefusesJSONRecord(t *testing.T) {
	opts := crashedDir(t)
	rewriteWAL(t, opts, func(rec storage.Record) storage.Record {
		if rec.Epoch == 3 {
			rec.Kind, rec.Payload = walKindJSON, []byte(`{"tables":[]}`)
		}
		return rec
	})
	_, err := Open(opts)
	if !errors.Is(err, errJSONWALRecord) || !strings.Contains(err.Error(), "replay epoch 3: WAL record kind 1 is the retired JSON record") {
		t.Fatalf("Open over a JSON record: %v, want the retired-JSON error at epoch 3", err)
	}

	clean := durableOpts(t)
	q := openDurable(t, clean, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(clean)
	if err != nil {
		t.Fatalf("a cleanly closed directory does not open: %v", err)
	}
	defer r.Close()
	if n := r.CurrentCatalog().NumRelations(); n != q.CurrentCatalog().NumRelations() {
		t.Fatalf("reopened with %d relations, want %d", n, q.CurrentCatalog().NumRelations())
	}
}

// TestReplayNamesLowestEpoch: with two undecodable records in the tail,
// Open names the lower epoch at every engine width, however the decode
// workers finish.
func TestReplayNamesLowestEpoch(t *testing.T) {
	opts := crashedDir(t)
	rewriteWAL(t, opts, func(rec storage.Record) storage.Record {
		if rec.Epoch == 2 || rec.Epoch == 4 {
			rec.Payload = append(slices.Clone(rec.Payload), 0) // a trailing byte
		}
		return rec
	})
	for _, width := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		for range 5 {
			prev := runtime.GOMAXPROCS(width)
			_, err := Open(opts)
			runtime.GOMAXPROCS(prev)
			if err == nil || !strings.HasPrefix(err.Error(), "core: replay epoch 2: ") {
				t.Fatalf("width %d: Open = %v, want the error of epoch 2", width, err)
			}
		}
	}
}

// TestFailedOpenJoinsGoroutines: an Open that fails — on a record, on the
// graph section, or on the segments section while the second goroutine is
// still indexing a long tail — returns only after every goroutine it
// started has finished, at every engine width.
func TestFailedOpenJoinsGoroutines(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A tail long enough to index that an Open returning before the
	// second goroutine finishes leaves it running.
	var tail []*relstore.Table
	for i := range 40 {
		rows := make([][]string, 300)
		for j := range rows {
			rows[j] = []string{fmt.Sprintf("k%d-%d", i, j), fmt.Sprintf("alpha beta %d gamma %d", j, i*j), fmt.Sprintf("delta %d", j%17)}
		}
		tail = append(tail, mkTable(t, &relstore.Relation{Source: fmt.Sprintf("bulk%d", i), Name: "t",
			Attributes: []relstore.Attribute{{Name: "k"}, {Name: "v"}, {Name: "w"}}}, rows))
	}
	if err := q.AddTables(tail...); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(opts.DataDir, fmt.Sprintf("gen-%d.snap", q.persist.store.SnapshotEpoch()))
	if err := q.persist.store.Close(); err != nil {
		t.Fatal(err)
	}
	// broken copies the directory with the snapshot's section name
	// replaced by sec, or, for name "wal", the last record cut by a byte.
	broken := func(name string, sec []byte) Options {
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
			if e.Name() == filepath.Base(snapPath) && name != "wal" {
				data = replaceSection(t, data, name, sec)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		o := opts
		o.DataDir = dir
		if name == "wal" {
			rewriteWAL(t, o, func(rec storage.Record) storage.Record {
				rec.Payload = rec.Payload[:len(rec.Payload)-1]
				return rec
			})
		}
		return o
	}
	cases := map[string]Options{
		"record":   broken("wal", nil),
		"graph":    broken("graph", []byte("QGRFb1\n\n\xff")),
		"segments": broken("segments", []byte("QSEGb9\n\n")),
	}
	for _, width := range []int{1, 2, 4} {
		for name, o := range cases {
			runtime.GC()
			base := runtime.NumGoroutine()
			prev := runtime.GOMAXPROCS(width)
			r, err := Open(o)
			runtime.GOMAXPROCS(prev)
			if err == nil {
				r.Close()
				t.Fatalf("width %d, broken %s: Open succeeded", width, name)
			}
			// A goroutine that has signalled its end may take a moment to
			// exit; one still indexing the tail takes far longer.
			deadline := time.Now().Add(20 * time.Millisecond)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("width %d, broken %s: %d goroutines after the failed Open, %d before", width, name, n, base)
			}
		}
	}
}

// TestOpenForgetsReplayedRecords: once Open has replayed the WAL tail, the
// store no longer holds the records' payloads.
func TestOpenForgetsReplayedRecords(t *testing.T) {
	opts := crashedDir(t)
	q, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.WALEpoch() != 4 {
		t.Fatalf("reopened at epoch %d, want 4", q.WALEpoch())
	}
	if n := len(q.persist.store.Records()); n != 0 {
		t.Fatalf("the store still holds %d replayed records", n)
	}
}
