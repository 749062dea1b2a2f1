package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"qint/internal/relstore"
	"qint/internal/storage"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	// Learn something so the snapshot carries non-default weights.
	if m := v.Current(); len(m.Trees) >= 2 {
		if err := q.FeedbackFavorTree(m, m.Trees[1]); err != nil {
			t.Fatal(err)
		}
	}
	beforeRows := fingerprintView(v)
	beforeWeights := q.CurrentGraph().Weights().Clone()

	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	if q2.CurrentCatalog().NumRelations() != q.CurrentCatalog().NumRelations() {
		t.Errorf("relations: %d vs %d", q2.CurrentCatalog().NumRelations(), q.CurrentCatalog().NumRelations())
	}
	if q2.CurrentGraph().NumEdges() != q.CurrentGraph().NumEdges() {
		t.Errorf("edges: %d vs %d",
			q2.CurrentGraph().NumEdges(), q.CurrentGraph().NumEdges())
	}
	for k, w := range beforeWeights {
		if q2.CurrentGraph().Weights()[k] != w {
			t.Errorf("weight %s: %v vs %v", k, q2.CurrentGraph().Weights()[k], w)
		}
	}
	views := q2.Views()
	if len(views) != 1 {
		t.Fatalf("views = %d, want 1", len(views))
	}
	if got := fingerprintView(views[0]); got != beforeRows {
		t.Errorf("view contents changed across save/load:\nbefore:\n%s\nafter:\n%s",
			beforeRows, got)
	}
}

func TestSaveLoadEmptyInstance(t *testing.T) {
	q := New(DefaultOptions())
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if q2.CurrentCatalog().NumRelations() != 0 || len(q2.Views()) != 0 {
		t.Error("empty instance should load empty")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	var valid bytes.Buffer
	if err := New(DefaultOptions()).Save(&valid); err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"",
		"{",
		`{"version": 42}`,
		// A JSON save from before the checkpoint container was the one
		// format: it no longer loads.
		`{"version":1,"options":{"K":5},"catalog":{"version":1,"tables":null},` +
			`"graph":{"version":1,"weights":{"default":1},"nodes":null,"edges":null},"views":null}` + "\n",
		valid.String()[:valid.Len()-1], // truncated container
	}
	for i, s := range cases {
		if _, err := Load(strings.NewReader(s), DefaultOptions()); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Load never attaches a data directory; that is Open's job.
	opts := DefaultOptions()
	opts.DataDir = t.TempDir()
	if _, err := Load(bytes.NewReader(valid.Bytes()), opts); err == nil {
		t.Error("Load with a DataDir should fail")
	}
}

// TestSaveLoadHostileKeywords pins the two round-trip bugs the keyword
// list used to hit: views were recreated by re-joining keywords as 'kw'
// (so a quote inside a keyword ended the phrase early and an empty keyword
// vanished), and were rematerialised at the default k instead of
// the k each view was saved with. Query takes a Request's keyword list and
// k verbatim, so every view — whatever its keywords contain — must come back
// byte-identical.
func TestSaveLoadHostileKeywords(t *testing.T) {
	q := newFixtureQ(t, true)
	hostile := [][]string{
		{"o'brien", "plasma membrane"},     // embedded quote
		{"'nucleus'", "entry"},             // fully quoted keyword
		{"", "nucleus"},                    // empty keyword survives verbatim
		{"zoë", "plasma membrane"},         // non-ASCII
		{"nul\x00byte", "entry"},           // NUL inside a keyword
		{"plasma membrane", "", "o'brien"}, // several at once
	}
	const savedK = 3 // differs from defaultK to catch the K bug
	var before []string
	for _, kws := range hostile {
		v, err := q.Query(Request{Keywords: kws, K: savedK})
		if err != nil {
			t.Fatalf("Query(%q): %v", kws, err)
		}
		before = append(before, fingerprintView(v))
	}

	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	views := q2.Views()
	if len(views) != len(hostile) {
		t.Fatalf("views = %d, want %d", len(views), len(hostile))
	}
	for i, v := range views {
		if v.K != savedK {
			t.Errorf("view %d: K = %d, want the saved %d (not the default k)", i, v.K, savedK)
		}
		if got := fingerprintView(v); got != before[i] {
			t.Errorf("view %d (%q) changed across save/load:\nbefore:\n%s\nafter:\n%s",
				i, hostile[i], before[i], got)
		}
	}
}

// TestQueryKeywordsValidation: Query rejects an empty keyword list (no
// keywords means no terminals) and falls back to the default k for k <= 0.
func TestQueryKeywordsValidation(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := q.Query(Request{}); err == nil {
		t.Error("empty keyword list should fail")
	}
	if v, err := q.Query(Request{Keywords: []string{"nucleus", "entry"}}); err != nil {
		t.Errorf("k<=0 should fall back to the default k: %v", err)
	} else if v.K != defaultK {
		t.Errorf("k<=0 gave K = %d, want %d", v.K, defaultK)
	}
}

func TestLoadedInstanceKeepsWorking(t *testing.T) {
	q := newFixtureQ(t, true)
	if _, err := queryStr(q, "'plasma membrane' 'Kringle domain'"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// New query on the loaded instance.
	v, err := queryStr(q2, "'nucleus' entry")
	if err != nil {
		t.Fatal(err)
	}
	m := v.Current()
	if len(m.Trees) == 0 {
		t.Error("loaded instance should answer new queries")
	}
	// Feedback still works.
	if len(m.Result.Rows) > 0 {
		if err := q2.FeedbackRow(v, 0, FeedbackValid); err != nil {
			t.Errorf("feedback on loaded instance: %v", err)
		}
	}
}

// TestSaveConcurrentWithWriter: Save reads the writer-owned catalog and
// graph, so it must serialise with writers — run under -race, a Save beside
// AddTables must neither race nor write a torn state. Every container it
// writes loads.
func TestSaveConcurrentWithWriter(t *testing.T) {
	q := newFixtureQ(t, true)
	const n = 30
	tables := make([]*relstore.Table, n)
	for i := range tables {
		tables[i] = mkTable(t, &relstore.Relation{Source: fmt.Sprintf("src%d", i), Name: "ref",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "note"}}},
			[][]string{{"PUB0001", fmt.Sprintf("note %d", i)}})
	}
	done := make(chan error, 1)
	go func() {
		for _, tb := range tables {
			if err := q.AddTables(tb); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		if err := q.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions()); err != nil {
			t.Fatalf("save %d does not load: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := q2.CurrentCatalog().NumRelations(), q.CurrentCatalog().NumRelations(); got != want {
		t.Errorf("relations after load = %d, want %d", got, want)
	}
}

// TestSaveIsCheckpointFormat pins the one persistence format: for one state
// (the fixture, feedback and the hostile-keyword views), Save writes exactly
// the bytes Checkpoint publishes as gen-<epoch>.snap, and Load of those
// bytes restores every view exactly as Open of the data directory does.
func TestSaveIsCheckpointFormat(t *testing.T) {
	opts := durableOpts(t)
	q := openDurable(t, opts, manualCheckpoints)
	defer q.Close()
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	addHandCoded(t, q,
		relstore.AttrRef{Relation: "go.term", Attr: "acc"},
		relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	m := v.Current()
	if len(m.Trees) < 2 {
		t.Fatalf("fixture view has %d trees, want >= 2 for feedback", len(m.Trees))
	}
	if err := q.FeedbackFavorTree(m, m.Trees[1]); err != nil {
		t.Fatal(err)
	}
	for _, kws := range [][]string{
		{"o'brien", "plasma membrane"},
		{"", "nucleus"},
		{"zoë", "plasma membrane"},
		{"nul\x00byte", "entry"},
	} {
		if _, err := q.Query(Request{Keywords: kws, K: 3}); err != nil {
			t.Fatalf("Query(%q): %v", kws, err)
		}
	}

	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(opts.DataDir, "gen-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v (%v), want exactly one", snaps, err)
	}
	checkpoint, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := q.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), checkpoint) {
		t.Fatalf("Save wrote %d bytes that differ from the %d-byte %s",
			saved.Len(), len(checkpoint), filepath.Base(snaps[0]))
	}

	loaded, err := Load(bytes.NewReader(saved.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	opened := reopen(t, opts)
	lv, ov := loaded.Views(), opened.Views()
	if len(lv) != 5 || len(ov) != len(lv) {
		t.Fatalf("views: loaded %d, opened %d, want 5", len(lv), len(ov))
	}
	for i := range lv {
		if got, want := fingerprintView(lv[i]), fingerprintView(ov[i]); got != want {
			t.Errorf("view %d: Load differs from Open:\nload:\n%s\nopen:\n%s", i, got, want)
		}
	}
}

// viewIDs lists the IDs of q's persistent views in registry order.
func viewIDs(q *Q) []int64 {
	var ids []int64
	for _, v := range q.Views() {
		ids = append(ids, v.ID)
	}
	return ids
}

// TestViewIDsSurviveSaveLoad: view IDs persist with the view definitions,
// so after Save/Load every surviving view keeps its ID and answers, a
// dropped ID stays unknown, and the next view gets a fresh ID rather than
// the dropped one.
func TestViewIDsSurviveSaveLoad(t *testing.T) {
	q := newFixtureQ(t, true)
	for _, s := range []string{"'plasma membrane' 'Kringle domain'", "entry 'PUB0001'", "'nucleus' entry"} {
		if _, err := queryStr(q, s); err != nil {
			t.Fatal(err)
		}
	}
	if !q.DropView(1) || q.DropView(1) {
		t.Fatal("DropView(1) must succeed exactly once")
	}
	want := map[int64]string{}
	for _, v := range q.Views() {
		want[v.ID] = fingerprintView(v)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := viewIDs(q2); !reflect.DeepEqual(got, []int64{0, 2}) {
		t.Fatalf("loaded view IDs = %v, want [0 2]", got)
	}
	for id, fp := range want {
		if v := q2.View(id); v == nil || fingerprintView(v) != fp {
			t.Errorf("view %d did not survive Save/Load intact", id)
		}
	}
	if q2.View(1) != nil {
		t.Error("the dropped view 1 is back after Save/Load")
	}
	v, err := queryStr(q2, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 3 {
		t.Errorf("next view after Load has ID %d, want 3", v.ID)
	}
}

// TestLoadSnapshotWithoutViewIDs: a snapshot written before view IDs were
// persisted has none in its meta section. Its views get their positions as
// IDs — the IDs the server used to give them — and the next view the ID
// after the last.
func TestLoadSnapshotWithoutViewIDs(t *testing.T) {
	q := newFixtureQ(t, true)
	for _, s := range []string{"'plasma membrane' 'Kringle domain'", "entry 'PUB0001'"} {
		if _, err := queryStr(q, s); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved, err := storage.OpenContainer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the container with the meta section an older build wrote.
	var legacy bytes.Buffer
	cw, err := storage.NewContainerWriter(&legacy)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range saved.SectionNames() {
		sec, _ := saved.Section(name)
		if name == "meta" {
			sec = []byte(`{"version":1,"views":[{"keywords":["plasma membrane","Kringle domain"],"k":5},{"keywords":["entry","PUB0001"],"k":5}]}` + "\n")
		}
		if err := cw.Section(name, func(w io.Writer) error { _, err := w.Write(sec); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Finish(); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(legacy.Bytes()), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := viewIDs(q2); !reflect.DeepEqual(got, []int64{0, 1}) {
		t.Fatalf("view IDs = %v, want [0 1]", got)
	}
	for i, v := range q2.Views() {
		if fingerprintView(v) != fingerprintView(q.Views()[i]) {
			t.Errorf("view %d differs after the legacy round trip", i)
		}
	}
	if v, err := queryStr(q2, "'nucleus' entry"); err != nil {
		t.Fatal(err)
	} else if v.ID != 2 {
		t.Errorf("next view has ID %d, want 2", v.ID)
	}
}
