package core

import (
	"fmt"
	"strings"
	"testing"

	"qint/internal/learning"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

func steinerEdgeID(i int) steiner.EdgeID { return steiner.EdgeID(i) }

// mkTable builds a table or fails the test.
func mkTable(t *testing.T, rel *relstore.Relation, rows [][]string) *relstore.Table {
	t.Helper()
	tb, err := relstore.NewTable(rel, rows)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// fixtureTables builds a miniature GO + InterPro corpus:
//
//	go.term(acc, name)
//	ip.interpro2go(entry_ac, go_id)  FK→ip.entry
//	ip.entry(entry_ac, name)
//	ip.entry2pub(entry_ac, pub_id)   FK→ip.entry, FK→ip.pub
//	ip.pub(pub_id, title)
//
// go.term.acc ↔ ip.interpro2go.go_id have heavy value overlap but no FK —
// the alignment Q must discover.
func fixtureTables(t *testing.T) []*relstore.Table {
	t.Helper()
	var termRows, i2gRows, entryRows, e2pRows, pubRows [][]string
	names := []string{"plasma membrane", "nucleus", "cytoplasm", "ribosome",
		"mitochondrion", "golgi apparatus", "vacuole", "chloroplast",
		"lysosome", "endosome", "cytoskeleton", "cell wall"}
	for i, n := range names {
		acc := fmt.Sprintf("GO:%07d", i+1)
		termRows = append(termRows, []string{acc, n})
	}
	entryNames := []string{"Kringle domain", "Zinc finger", "Membrane protein",
		"Helicase", "Protein kinase", "Homeobox"}
	for i, n := range entryNames {
		ac := fmt.Sprintf("IPR%06d", i+1)
		entryRows = append(entryRows, []string{ac, n})
		i2gRows = append(i2gRows, []string{ac, fmt.Sprintf("GO:%07d", i+1)})
		pid := fmt.Sprintf("PUB%04d", i+1)
		e2pRows = append(e2pRows, []string{ac, pid})
		pubRows = append(pubRows, []string{pid, fmt.Sprintf("Paper about %s", n)})
	}
	return []*relstore.Table{
		mkTable(t, &relstore.Relation{Source: "go", Name: "term",
			Attributes: []relstore.Attribute{{Name: "acc"}, {Name: "name"}}}, termRows),
		mkTable(t, &relstore.Relation{Source: "ip", Name: "interpro2go",
			Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "go_id"}},
			ForeignKeys: []relstore.ForeignKey{
				{FromAttr: "entry_ac", ToRelation: "ip.entry", ToAttr: "entry_ac"}}}, i2gRows),
		mkTable(t, &relstore.Relation{Source: "ip", Name: "entry",
			Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "name"}}}, entryRows),
		mkTable(t, &relstore.Relation{Source: "ip", Name: "entry2pub",
			Attributes: []relstore.Attribute{{Name: "entry_ac"}, {Name: "pub_id"}},
			ForeignKeys: []relstore.ForeignKey{
				{FromAttr: "entry_ac", ToRelation: "ip.entry", ToAttr: "entry_ac"},
				{FromAttr: "pub_id", ToRelation: "ip.pub", ToAttr: "pub_id"}}}, e2pRows),
		mkTable(t, &relstore.Relation{Source: "ip", Name: "pub",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "title"}}}, pubRows),
	}
}

// newFixtureQ builds a Q over the fixture with the acc↔go_id association
// hand-coded (so querying across the two sources works before any matcher
// discovers it).
// addHandCoded adds one hand-coded association (paper §2.1) as its own
// write.
func addHandCoded(t testing.TB, q *Q, a, b relstore.AttrRef) {
	t.Helper()
	if err := q.AddAssociations(learning.Vector{"handcoded": 1}, [2]relstore.AttrRef{a, b}); err != nil {
		t.Fatal(err)
	}
}

func newFixtureQ(t *testing.T, handCode bool) *Q {
	t.Helper()
	q := New(DefaultOptions())
	if err := q.AddTables(fixtureTables(t)...); err != nil {
		t.Fatal(err)
	}
	if handCode {
		addHandCoded(t, q,
			relstore.AttrRef{Relation: "go.term", Attr: "acc"},
			relstore.AttrRef{Relation: "ip.interpro2go", Attr: "go_id"})
	}
	return q
}

// queryStr runs a persistent query from a query string.
func queryStr(q *Q, query string) (*View, error) {
	return q.Query(Request{Keywords: ParseKeywords(query)})
}

func TestParseKeywords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"GO term name", []string{"GO", "term", "name"}},
		{"name 'plasma membrane' publication", []string{"name", "plasma membrane", "publication"}},
		{"  spaced   out  ", []string{"spaced", "out"}},
		{"'unclosed quote", []string{"unclosed quote"}},
		{"", nil},
	}
	for _, c := range cases {
		got := ParseKeywords(c.in)
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("ParseKeywords(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestQueryEmptyFails(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := queryStr(q, "   "); err == nil {
		t.Error("empty query should fail")
	}
}

func TestQuerySingleSource(t *testing.T) {
	q := newFixtureQ(t, false)
	v, err := queryStr(q, "entry 'PUB0001'")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Trees()) == 0 {
		t.Fatal("no trees found")
	}
	if v.Result() == nil || len(v.Result().Rows) == 0 {
		t.Fatal("no result rows")
	}
	if v.Alpha() <= 0 {
		t.Errorf("alpha = %v, want > 0", v.Alpha())
	}
}

func TestQueryJoinAcrossForeignKeys(t *testing.T) {
	q := newFixtureQ(t, false)
	// "Kringle" is an entry name; "PUB0001" is its pub. A tree joining
	// entry → entry2pub → pub answers both keywords.
	v, err := queryStr(q, "'Kringle domain' 'PUB0001'")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Result().Rows) == 0 {
		t.Fatal("expected joined answers")
	}
	found := false
	for _, row := range v.Result().Rows {
		joined := strings.Join(row.Values, "|")
		if strings.Contains(joined, "Kringle domain") && strings.Contains(joined, "PUB0001") {
			found = true
		}
	}
	if !found {
		t.Errorf("no row relates Kringle to PUB0001; rows: %v", v.Result().Rows)
	}
}

func TestQueryAcrossSourcesViaAssociation(t *testing.T) {
	q := newFixtureQ(t, true)
	// plasma membrane is a GO term; Kringle domain is the InterPro entry
	// mapped to GO:0000001 == plasma membrane's acc. Only the hand-coded
	// association bridges the sources.
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Result().Rows) == 0 {
		t.Fatal("association edge should enable the cross-source join")
	}
	row := strings.Join(v.Result().Rows[0].Values, "|")
	if !strings.Contains(row, "plasma membrane") || !strings.Contains(row, "Kringle domain") {
		t.Errorf("top row should relate the two keywords: %q", row)
	}
}

func TestViewRefreshAfterWeightChange(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	before := len(v.Result().Rows)
	// Raising the default weight raises all costs but should not break
	// rematerialisation.
	w := q.CurrentGraph().Weights().Clone()
	w["default"] += 1
	if err := q.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if len(v.Result().Rows) == 0 || before == 0 {
		t.Error("refresh lost the view contents")
	}
}

func TestTreeToQueryProducesValidSQL(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' publication")
	if err != nil {
		t.Fatal(err)
	}
	for _, cq := range v.Queries() {
		if err := cq.Validate(q.CurrentCatalog()); err != nil {
			t.Errorf("invalid query: %v\nSQL: %s", err, cq.SQL())
		}
		sql := cq.SQL()
		if !strings.HasPrefix(sql, "SELECT") || !strings.Contains(sql, "_cost") {
			t.Errorf("SQL malformed: %s", sql)
		}
	}
}

func TestRegisterSourceExhaustive(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := queryStr(q, "term 'plasma membrane'"); err != nil {
		t.Fatal(err)
	}
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())

	// New source: a journal table whose pub identifiers overlap ip.pub.
	newTables := []*relstore.Table{mkTable(t,
		&relstore.Relation{Source: "jrnl", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
		[][]string{{"PUB0001", "Nature"}, {"PUB0002", "Science"}, {"PUB0003", "Cell"}})}

	rep, err := q.RegisterSource(newTables, Exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TargetsCompared) != 5 {
		t.Errorf("exhaustive should compare all 5 pre-existing relations, got %v", rep.TargetsCompared)
	}
	if rep.MatcherCalls != 10 { // 2 matchers × 5 targets × 1 new relation
		t.Errorf("matcher calls = %d, want 10", rep.MatcherCalls)
	}
	// pub_id ↔ ip.pub.pub_id must be among the discovered alignments.
	var found bool
	for pair := range rep.AlignmentsByPair {
		if strings.Contains(pair, "jrnl.journal.pub_id") && strings.Contains(pair, "ip.pub.pub_id") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected pub_id alignment, got %v", rep.AlignmentsByPair)
	}
}

func TestRegisterSourceValidation(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := q.RegisterSource(nil, Exhaustive); err == nil {
		t.Error("empty registration should fail")
	}
	mixed := []*relstore.Table{
		mkTable(t, &relstore.Relation{Source: "a", Name: "r1",
			Attributes: []relstore.Attribute{{Name: "x"}}}, nil),
		mkTable(t, &relstore.Relation{Source: "b", Name: "r2",
			Attributes: []relstore.Attribute{{Name: "x"}}}, nil),
	}
	if _, err := q.RegisterSource(mixed, Exhaustive); err == nil {
		t.Error("mixed-source registration should fail")
	}
	dup := []*relstore.Table{mkTable(t, &relstore.Relation{Source: "go", Name: "other",
		Attributes: []relstore.Attribute{{Name: "x"}}}, nil)}
	if _, err := q.RegisterSource(dup, Exhaustive); err == nil {
		t.Error("re-registering an existing source should fail")
	}
}

func TestViewBasedAlignerPrunesTargets(t *testing.T) {
	// Pruning requires the view's k result slots to be full (otherwise any
	// new answer could enter and the radius is rightly unbounded), so use a
	// small k the fixture satisfies.
	q := newFixtureQ(t, false)
	// View over the publications corner of the graph.
	if v, err := q.Query(Request{Keywords: []string{"PUB0001", "title"}, K: 2}); err != nil {
		t.Fatal(err)
	} else if len(v.Result().Rows) < v.K {
		t.Fatalf("fixture view must fill its %d slots, has %d rows", v.K, len(v.Result().Rows))
	}
	q.AddMatcher(meta.New())

	newTables := []*relstore.Table{mkTable(t,
		&relstore.Relation{Source: "jrnl", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
		[][]string{{"PUB0001", "Nature"}})}

	rep, err := q.RegisterSource(newTables, ViewBased)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TargetsCompared) == 0 {
		t.Fatal("neighbourhood should contain at least ip.pub")
	}
	if len(rep.TargetsCompared) >= 5 {
		t.Errorf("view-based should prune targets, compared %v", rep.TargetsCompared)
	}
	foundPub := false
	for _, r := range rep.TargetsCompared {
		if r == "ip.pub" {
			foundPub = true
		}
	}
	if !foundPub {
		t.Errorf("ip.pub must be in the α-neighbourhood, got %v", rep.TargetsCompared)
	}
}

func TestViewBasedMatchesExhaustiveOnViewResults(t *testing.T) {
	// The Algorithm 2 guarantee: same top-k view contents as EXHAUSTIVE.
	mkQ := func() *Q {
		q := newFixtureQ(t, false)
		q.AddMatcher(meta.New())
		return q
	}
	newTables := func() []*relstore.Table {
		return []*relstore.Table{mkTable(t,
			&relstore.Relation{Source: "jrnl", Name: "journal",
				Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
			[][]string{{"PUB0001", "Nature"}, {"PUB0002", "Science"}})}
	}

	qe := mkQ()
	ve, err := queryStr(qe, "'PUB0001' title")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qe.RegisterSource(newTables(), Exhaustive); err != nil {
		t.Fatal(err)
	}

	qv := mkQ()
	vv, err := queryStr(qv, "'PUB0001' title")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := qv.RegisterSource(newTables(), ViewBased); err != nil {
		t.Fatal(err)
	}

	re := renderRows(ve)
	rv := renderRows(vv)
	if re != rv {
		t.Errorf("view contents diverge:\nEXHAUSTIVE:\n%s\nVIEWBASED:\n%s", re, rv)
	}
	if qv.Stats.AttrComparisons() > qe.Stats.AttrComparisons() {
		t.Errorf("view-based did more work: %d vs %d",
			qv.Stats.AttrComparisons(), qe.Stats.AttrComparisons())
	}
}

func renderRows(v *View) string {
	var b strings.Builder
	k := v.K
	if k > len(v.Result().Rows) {
		k = len(v.Result().Rows)
	}
	for _, r := range v.Result().Rows[:k] {
		fmt.Fprintf(&b, "%v\n", r.Values)
	}
	return b.String()
}

func TestPreferentialAlignerHonoursBudget(t *testing.T) {
	q := newFixtureQ(t, false)
	q.AddMatcher(meta.New())
	newTables := []*relstore.Table{mkTable(t,
		&relstore.Relation{Source: "jrnl", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}}}, nil)}
	rep, err := q.RegisterSource(newTables, Preferential)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TargetsCompared) != preferentialBudget {
		t.Errorf("budget %d of 5 relations should compare %d targets, got %v",
			preferentialBudget, preferentialBudget, rep.TargetsCompared)
	}
}

func TestValueOverlapFilterReducesComparisons(t *testing.T) {
	run := func(filter bool) int {
		opts := DefaultOptions()
		opts.ValueOverlapFilter = filter
		q := New(opts)
		if err := q.AddTables(fixtureTables(t)...); err != nil {
			t.Fatal(err)
		}
		q.AddMatcher(meta.New())
		newTables := []*relstore.Table{mkTable(t,
			&relstore.Relation{Source: "jrnl", Name: "journal",
				Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "journal_name"}}},
			[][]string{{"PUB0001", "Nature"}})}
		if _, err := q.RegisterSource(newTables, Exhaustive); err != nil {
			t.Fatal(err)
		}
		return q.Stats.AttrComparisons()
	}
	unfiltered := run(false)
	filtered := run(true)
	if filtered >= unfiltered {
		t.Errorf("filter should cut comparisons: %d vs %d", filtered, unfiltered)
	}
	if filtered == 0 {
		t.Error("pub_id overlap should leave at least one comparison")
	}
}

func TestFeedbackFavorsTargetTree(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Trees()) < 2 {
		t.Skip("fixture produced fewer than 2 trees; nothing to separate")
	}
	// Favour the SECOND-ranked tree. A single online MIRA step only
	// separates the target from the CURRENT k-best set — new trees can
	// surface — so, exactly as the paper replays its feedback log (§5.2.2),
	// repeat the feedback until the ranking converges.
	target := v.Trees()[1]
	for i := 0; i < 10; i++ {
		if err := q.FeedbackFavorTree(v, target); err != nil {
			t.Fatal(err)
		}
		if len(v.Trees()) > 0 && v.Trees()[0].Key() == target.Key() {
			break
		}
	}
	if len(v.Trees()) == 0 {
		t.Fatal("view lost trees after feedback")
	}
	if v.Trees()[0].Key() != target.Key() {
		t.Errorf("target tree should rank first after repeated feedback; got %s want %s",
			v.Trees()[0].Key(), target.Key())
	}
}

func TestFeedbackKeepsEdgeCostsPositive(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Trees()) < 2 {
		t.Skip("need at least 2 trees")
	}
	for i := 0; i < 5; i++ { // repeated feedback (the paper replays logs)
		if err := q.FeedbackFavorTree(v, v.Trees()[len(v.Trees())-1]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < q.CurrentGraph().NumEdges(); i++ {
		e := q.CurrentGraph().Edge(steinerEdgeID(i))
		cost := q.CurrentGraph().Cost(steinerEdgeID(i))
		if e.Fixed {
			if cost != 0 {
				t.Errorf("fixed edge %d cost %v", i, cost)
			}
			continue
		}
		if cost <= 0 {
			t.Errorf("learnable edge %d cost %v, want > 0", i, cost)
		}
	}
}

func TestFeedbackRowValidAndInvalid(t *testing.T) {
	q := newFixtureQ(t, true)
	v, err := queryStr(q, "'plasma membrane' 'Kringle domain'")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Result().Rows) == 0 {
		t.Fatal("no rows to give feedback on")
	}
	if err := q.FeedbackRow(v, 0, FeedbackValid); err != nil {
		t.Fatal(err)
	}
	if err := q.FeedbackRow(v, 0, FeedbackInvalid); err != nil {
		t.Fatal(err)
	}
	if err := q.FeedbackRow(v, 10_000, FeedbackValid); err == nil {
		t.Error("out-of-range row should fail")
	}
}

func TestGoldEdgeGap(t *testing.T) {
	q := newFixtureQ(t, false)
	q.AddMatcher(meta.New())
	newTables := []*relstore.Table{mkTable(t,
		&relstore.Relation{Source: "jrnl", Name: "journal",
			Attributes: []relstore.Attribute{{Name: "pub_id"}, {Name: "qqqq"}}},
		[][]string{{"PUB0001", "x"}})}
	if _, err := q.RegisterSource(newTables, Exhaustive); err != nil {
		t.Fatal(err)
	}
	gold := map[string]bool{
		CanonicalPair("jrnl.journal.pub_id", "ip.pub.pub_id"): true,
	}
	gAvg, ngAvg, gN, _ := q.GoldEdgeGap(gold)
	if gN != 1 {
		t.Fatalf("gold edge not found in graph (gN=%d)", gN)
	}
	if gAvg <= 0 {
		t.Errorf("gold avg cost = %v", gAvg)
	}
	_ = ngAvg // non-gold may be empty in this tiny setup
}

func TestCountTargetComparisons(t *testing.T) {
	q := newFixtureQ(t, false)
	if _, err := q.Query(Request{Keywords: []string{"PUB0001", "title"}, K: 2}); err != nil {
		t.Fatal(err)
	}
	newRel := &relstore.Relation{Source: "x", Name: "r",
		Attributes: []relstore.Attribute{{Name: "a"}, {Name: "b"}}}
	ex := q.CountTargetComparisons([]*relstore.Relation{newRel}, Exhaustive)
	vb := q.CountTargetComparisons([]*relstore.Relation{newRel}, ViewBased)
	pf := q.CountTargetComparisons([]*relstore.Relation{newRel}, Preferential)
	if ex != 2*10 { // 5 relations × 2 attrs each × 2 new attrs
		t.Errorf("exhaustive comparisons = %d, want 20", ex)
	}
	if vb >= ex {
		t.Errorf("view-based (%d) should be below exhaustive (%d)", vb, ex)
	}
	if pf > ex {
		t.Errorf("preferential (%d) should not exceed exhaustive (%d)", pf, ex)
	}
}

func TestOptionsDefaults(t *testing.T) {
	if got := (Options{}).withDefaults().MaxViews; got != DefaultOptions().MaxViews {
		t.Errorf("zero MaxViews defaults to %d, want %d", got, DefaultOptions().MaxViews)
	}
	// An explicit value survives.
	if got := (Options{MaxViews: 9}).withDefaults().MaxViews; got != 9 {
		t.Errorf("explicit MaxViews overwritten: %d", got)
	}
}

func TestStrategyStrings(t *testing.T) {
	if Exhaustive.String() != "EXHAUSTIVE" ||
		ViewBased.String() != "VIEWBASEDALIGNER" ||
		Preferential.String() != "PREFERENTIALALIGNER" {
		t.Error("strategy names wrong")
	}
}

// TestSingleKeywordQuery: a one-keyword query answers with its keyword's
// cheapest matches, each a one-edge tree, instead of failing on the
// edgeless one-node Steiner tree. Value, phrase, word and schema-label
// keywords all answer, and a persistent view equals an ephemeral query on
// a second engine.
func TestSingleKeywordQuery(t *testing.T) {
	q, other := newFixtureQ(t, true), newFixtureQ(t, true)
	for _, kw := range []string{"plasma membrane", "membrane", "name", "GO:0000001"} {
		v, err := q.Query(Request{Keywords: []string{kw}})
		if err != nil {
			t.Fatalf("%q: %v", kw, err)
		}
		m := v.Current()
		if len(m.Result.Rows) == 0 {
			t.Errorf("%q: no rows", kw)
		}
		for i, tr := range m.Trees {
			if len(tr.Edges) != 1 || len(tr.Nodes) != 2 {
				t.Errorf("%q: tree %s has %d edges and %d nodes, want 1 and 2", kw, tr.Key(), len(tr.Edges), len(tr.Nodes))
			}
			if i > 0 && tr.Cost < m.Trees[i-1].Cost {
				t.Errorf("%q: trees out of cost order", kw)
			}
		}
		e, err := other.Query(Request{Keywords: []string{kw}, Ephemeral: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprintView(v), fingerprintView(e); got != want {
			t.Errorf("%q: view differs from an ephemeral query:\nview:\n%s\nephemeral:\n%s", kw, got, want)
		}
	}
	// A keyword that matches nothing has no answers, and no error.
	if v, err := q.Query(Request{Keywords: []string{"zzzzqqqq"}}); err != nil {
		t.Errorf("unmatched keyword: %v", err)
	} else if len(v.Trees()) != 0 {
		t.Errorf("unmatched keyword: %d trees, want none", len(v.Trees()))
	}
}
