package mediated

import (
	"fmt"
	"testing"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
)

// newBoundMediator sets up Q over InterPro-GO (with source alignments) and
// binds a small bioinformatics mediated schema.
func newBoundMediator(t *testing.T) (*core.Q, *Mediator) {
	t.Helper()
	q := core.New(core.DefaultOptions())
	q.AddMatcher(meta.New())
	q.AddMatcher(mad.New())
	corpus := datasets.InterProGO()
	if err := q.AddTables(corpus.Tables...); err != nil {
		t.Fatal(err)
	}
	if _, err := q.AlignAllPairs(); err != nil {
		t.Fatal(err)
	}

	schema := Schema{
		Name: "bio",
		Attributes: []Attribute{
			{Name: "go_accession", Synonyms: []string{"acc", "go_id"}},
			{Name: "term_name", Synonyms: []string{"name"}},
			{Name: "entry_name", Synonyms: []string{"name"}},
			{Name: "publication_title", Synonyms: []string{"title"}},
		},
	}
	m, err := Bind(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	return q, m
}

func TestBindValidation(t *testing.T) {
	q := core.New(core.DefaultOptions())
	if _, err := Bind(q, Schema{}); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := Bind(q, Schema{Name: "x"}); err == nil {
		t.Error("schema without attributes should fail")
	}
}

func TestMappingsProposed(t *testing.T) {
	_, m := newBoundMediator(t)
	maps := m.Mappings("go_accession")
	if len(maps) == 0 {
		t.Fatal("go_accession should map somewhere")
	}
	// The synonyms steer the top mapping to go.term.acc or interpro2go.go_id.
	top := maps[0].Source.String()
	if top != "go.term.acc" && top != "interpro.interpro2go.go_id" {
		t.Errorf("top mapping = %s, want a GO accession column (all: %v)", top, maps)
	}
	// Ranked ascending by cost.
	for i := 1; i < len(maps); i++ {
		if maps[i].Cost < maps[i-1].Cost {
			t.Errorf("mappings not sorted at %d", i)
		}
	}
	if m.Mappings("nonexistent") != nil {
		t.Error("unknown attribute should have no mappings")
	}
}

func TestMediatedQuerySingleAttribute(t *testing.T) {
	_, m := newBoundMediator(t)
	answers, err := m.Query([]string{"term_name"},
		[]Condition{{Attr: "go_accession", Value: "GO:0001000"}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("expected answers")
	}
	found := false
	for _, a := range answers {
		if a.Values["term_name"] == "plasma membrane" {
			found = true
		}
		if a.Cost <= 0 {
			t.Errorf("answer cost %v should be positive", a.Cost)
		}
		if a.SQL == "" {
			t.Error("answers should carry SQL provenance")
		}
		if len(a.ChosenMappings) == 0 {
			t.Error("answers should record chosen mappings")
		}
	}
	if !found {
		t.Errorf("GO:0001000 is 'plasma membrane'; answers: %v", answers)
	}
}

func TestMediatedQueryCrossSource(t *testing.T) {
	_, m := newBoundMediator(t)
	// Entry names live in InterPro; GO accessions in GO/interpro2go: the
	// query must join across the discovered alignments.
	answers, err := m.Query([]string{"entry_name"},
		[]Condition{{Attr: "go_accession", Value: "GO:0001000"}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) == 0 {
		t.Fatal("cross-source mediated query should produce answers")
	}
	// Entry 0 (kringle domain family 0) maps to GO:0001000 via interpro2go.
	found := false
	for _, a := range answers {
		if a.Values["entry_name"] == "kringle domain family 0" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected kringle domain family 0; answers: %+v", answers)
	}
}

func TestMediatedQueryValidation(t *testing.T) {
	_, m := newBoundMediator(t)
	if _, err := m.Query(nil, nil, 5); err == nil {
		t.Error("no output attributes should fail")
	}
	if _, err := m.Query([]string{"nonexistent"}, nil, 5); err == nil {
		t.Error("unmapped attribute should fail")
	}
}

func TestPreferMappingReRanks(t *testing.T) {
	_, m := newBoundMediator(t)
	maps := m.Mappings("go_accession")
	if len(maps) < 2 {
		t.Skip("need at least two candidate mappings")
	}
	// Prefer the currently-second mapping over the first, repeatedly (the
	// online update is gentle by design).
	good := map[string]relstore.AttrRef{"go_accession": maps[1].Source}
	bad := map[string]relstore.AttrRef{"go_accession": maps[0].Source}
	for i := 0; i < 50; i++ {
		if err := m.PreferMapping(good, bad); err != nil {
			t.Fatal(err)
		}
		if m.Mappings("go_accession")[0].Source == good["go_accession"] {
			break
		}
	}
	if got := m.Mappings("go_accession")[0].Source; got != good["go_accession"] {
		t.Errorf("after feedback, top mapping = %s, want %s", got, good["go_accession"])
	}
}

func TestMediatedAnswersDeterministic(t *testing.T) {
	_, m := newBoundMediator(t)
	run := func() string {
		answers, err := m.Query([]string{"term_name"},
			[]Condition{{Attr: "go_accession", Value: "GO:0001001"}}, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := ""
		for _, a := range answers {
			s += fmt.Sprintf("%v|%.4f;", a.Values, a.Cost)
		}
		return s
	}
	first := run()
	for i := 0; i < 3; i++ {
		if run() != first {
			t.Fatal("mediated answers not deterministic")
		}
	}
}
