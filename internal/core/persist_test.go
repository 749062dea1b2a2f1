package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := q.Query("'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	// Learn something so the snapshot carries non-default weights.
	if len(v.Trees()) >= 2 {
		if err := q.FeedbackFavorTree(v, v.Trees()[1]); err != nil {
			t.Fatal(err)
		}
	}
	beforeRows := renderRows(v)
	beforeWeights := q.Graph.Weights().Clone()

	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	if q2.Catalog.NumRelations() != q.Catalog.NumRelations() {
		t.Errorf("relations: %d vs %d", q2.Catalog.NumRelations(), q.Catalog.NumRelations())
	}
	if q2.Graph.NumEdges() != q.Graph.NumEdges() {
		t.Errorf("edges: %d vs %d (duplicated keyword edges on load?)",
			q2.Graph.NumEdges(), q.Graph.NumEdges())
	}
	for k, w := range beforeWeights {
		if q2.Graph.Weights()[k] != w {
			t.Errorf("weight %s: %v vs %v", k, q2.Graph.Weights()[k], w)
		}
	}
	views := q2.Views()
	if len(views) != 1 {
		t.Fatalf("views = %d, want 1", len(views))
	}
	if got := renderRows(views[0]); got != beforeRows {
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
	q2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q2.Catalog.NumRelations() != 0 || len(q2.Views()) != 0 {
		t.Error("empty instance should load empty")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for i, s := range []string{"", "{", `{"version": 42}`} {
		if _, err := Load(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestSaveLoadHostileKeywords pins the two round-trip bugs the keyword
// list used to hit: views were recreated by re-joining keywords as 'kw'
// (so a quote inside a keyword ended the phrase early and an empty keyword
// vanished), and were rematerialised at the loaded Options.K instead of
// the k each view was saved with. QueryKeywords takes the list and k
// verbatim, so every view — whatever its keywords contain — must come back
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
	const savedK = 3 // differs from DefaultOptions().K=5 to catch the K bug
	var before []string
	for _, kws := range hostile {
		v, err := q.QueryKeywords(kws, savedK)
		if err != nil {
			t.Fatalf("QueryKeywords(%q): %v", kws, err)
		}
		before = append(before, fingerprintView(v))
	}

	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	views := q2.Views()
	if len(views) != len(hostile) {
		t.Fatalf("views = %d, want %d", len(views), len(hostile))
	}
	for i, v := range views {
		if v.K != savedK {
			t.Errorf("view %d: K = %d, want the saved %d (not Options.K)", i, v.K, savedK)
		}
		if got := fingerprintView(v); got != before[i] {
			t.Errorf("view %d (%q) changed across save/load:\nbefore:\n%s\nafter:\n%s",
				i, hostile[i], before[i], got)
		}
	}
}

// TestQueryKeywordsValidation: the list-based entry point rejects an empty
// list (no keywords means no terminals) but accepts any keyword contents.
func TestQueryKeywordsValidation(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := q.QueryKeywords(nil, 0); err == nil {
		t.Error("empty keyword list should fail")
	}
	if _, err := q.QueryKeywords([]string{"nucleus", "entry"}, 0); err != nil {
		t.Errorf("k<=0 should fall back to Options.K: %v", err)
	}
}

func TestLoadedInstanceKeepsWorking(t *testing.T) {
	q := newFixtureQ(t, true)
	if _, err := q.Query("'plasma membrane' 'Kringle domain'"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// New query on the loaded instance.
	v, err := q2.Query("'nucleus' entry")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Trees()) == 0 {
		t.Error("loaded instance should answer new queries")
	}
	// Feedback still works.
	if len(v.Result().Rows) > 0 {
		if err := q2.FeedbackRow(v, 0, FeedbackValid); err != nil {
			t.Errorf("feedback on loaded instance: %v", err)
		}
	}
}

// TestLoadIgnoresRetiredOptions keeps old save files loading: snapshots
// written while Options still carried the ScanFindValues, MaterialisedExec,
// PlannerOff, QueryCacheDisabled and TopKPrune switches must load, and give
// views byte-identical to the same state saved without those fields.
func TestLoadIgnoresRetiredOptions(t *testing.T) {
	q := newFixtureQ(t, true)
	if _, err := q.Query("'plasma membrane' 'Kringle domain'"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query("'nucleus' entry"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := q.Save(&buf); err != nil {
		t.Fatal(err)
	}
	current := buf.String()
	const opts = `"options":{`
	if strings.Count(current, opts) != 1 {
		t.Fatalf("snapshot has %d options objects, want 1", strings.Count(current, opts))
	}
	retired := strings.Replace(current, opts,
		opts+`"ScanFindValues":true,"MaterialisedExec":true,"PlannerOff":true,"QueryCacheDisabled":true,"TopKPrune":true,`, 1)

	load := func(snapshot string) []string {
		t.Helper()
		q, err := Load(strings.NewReader(snapshot))
		if err != nil {
			t.Fatal(err)
		}
		var fps []string
		for _, v := range q.Views() {
			fps = append(fps, fingerprintView(v))
		}
		return fps
	}
	want, got := load(current), load(retired)
	if len(want) != 2 {
		t.Fatalf("views = %d, want 2", len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("view %d differs when loaded with retired options:\nwith:\n%s\nwithout:\n%s", i, got[i], want[i])
		}
	}
}
