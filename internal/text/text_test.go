package text

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"entry_ac", "entry ac"},
		{"Entry-AC", "entry ac"},
		{"  GO:0005134 ", "go 0005134"},
		{"plasma membrane", "plasma membrane"},
		{"___", ""},
		{"", ""},
		{"A", "a"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"entry_ac", []string{"entry", "ac"}},
		{"entryAc", []string{"entry", "ac"}},
		{"GO term name", []string{"go", "term", "name"}},
		{"", nil},
		{"!!!", nil},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestIsNumeric(t *testing.T) {
	yes := []string{"123", "-4.5", "+10", "1e5", "3,000", "0.0"}
	no := []string{"", "abc", "GO:123", "12a", "e5", "-", "1-2"}
	for _, s := range yes {
		if !IsNumeric(s) {
			t.Errorf("IsNumeric(%q) = false, want true", s)
		}
	}
	for _, s := range no {
		if IsNumeric(s) {
			t.Errorf("IsNumeric(%q) = true, want false", s)
		}
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"abc", "abc", 0},
		{"pub", "publication", 8},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error("edit distance not symmetric:", err)
	}
	identity := func(a string) bool { return EditDistance(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error("edit distance identity violated:", err)
	}
	triangle := func(a, b, c string) bool {
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("triangle inequality violated:", err)
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("abc", "abc"); got != 1 {
		t.Errorf("identical strings: got %v, want 1", got)
	}
	if got := EditSimilarity("", ""); got != 1 {
		t.Errorf("empty strings: got %v, want 1", got)
	}
	if got := EditSimilarity("abc", "xyz"); got != 0 {
		t.Errorf("disjoint same-length strings: got %v, want 0", got)
	}
	bounded := func(a, b string) bool {
		s := EditSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Error("similarity out of [0,1]:", err)
	}
}

func TestNGrams(t *testing.T) {
	g := NGrams("ab", 2)
	// padded: #ab# -> #a, ab, b#
	want := map[string]int{"#a": 1, "ab": 1, "b#": 1}
	if len(g) != len(want) {
		t.Fatalf("NGrams = %v, want %v", g, want)
	}
	for k, v := range want {
		if g[k] != v {
			t.Errorf("gram %q: got %d, want %d", k, g[k], v)
		}
	}
	if NGrams("x", 0) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestTrigramSimilarity(t *testing.T) {
	if got := TrigramSimilarity("entry", "entry"); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical: got %v, want 1", got)
	}
	sim := TrigramSimilarity("publication", "pub")
	if sim <= 0 || sim >= 1 {
		t.Errorf("prefix share should be in (0,1), got %v", sim)
	}
	if s := TrigramSimilarity("aaa", "zzz"); s != 0 {
		t.Errorf("disjoint: got %v, want 0", s)
	}
	symmetric := func(a, b string) bool {
		return math.Abs(TrigramSimilarity(a, b)-TrigramSimilarity(b, a)) < 1e-12
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("trigram similarity not symmetric:", err)
	}
}

// TestJaccard pins setJaccard, the set measure under tokenJaccard's oracle.
func TestJaccard(t *testing.T) {
	set := func(ss ...string) map[string]struct{} {
		m := make(map[string]struct{})
		for _, s := range ss {
			m[s] = struct{}{}
		}
		return m
	}
	if got := setJaccard(set(), set()); got != 1 {
		t.Errorf("empty sets: got %v, want 1", got)
	}
	if got := setJaccard(set("a"), set()); got != 0 {
		t.Errorf("one empty: got %v, want 0", got)
	}
	if got := setJaccard(set("a", "b"), set("b", "c")); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("overlap: got %v, want 1/3", got)
	}
	if got := setJaccard(set("a", "b"), set("a", "b")); got != 1 {
		t.Errorf("identical: got %v, want 1", got)
	}
}

func TestContainmentSimilarity(t *testing.T) {
	// "pub" is a substring of "publication": the abbrevs association of Fig. 2.
	s := ContainmentSimilarity("pub", "publication")
	if s <= 0.2 {
		t.Errorf("pub/publication should score well, got %v", s)
	}
	if got := ContainmentSimilarity("entry_ac", "entry_ac"); got != 1 {
		t.Errorf("identical labels: got %v, want 1", got)
	}
	// token overlap without substring containment
	s2 := ContainmentSimilarity("go term", "term name")
	if s2 <= 0 {
		t.Errorf("shared token should score > 0, got %v", s2)
	}
	if got := ContainmentSimilarity("", "x"); got != 0 {
		t.Errorf("empty string: got %v, want 0", got)
	}
}

func TestCorpusScoreAndTopMatches(t *testing.T) {
	c := NewCorpus()
	c.Add("n1", "GO term")
	c.Add("n2", "term name")
	c.Add("n3", "publication title")
	c.Add("n4", "entry_ac")

	if m := c.TopMatches("publication", 0, 0); len(m) != 1 || m[0].ID != "n3" || m[0].Score <= 0 {
		t.Errorf("TopMatches(publication) = %v, want only n3", m)
	}
	m := c.TopMatches("term", 0.01, 0)
	if len(m) != 2 {
		t.Fatalf("TopMatches(term) = %v, want 2 hits", m)
	}
	for _, hit := range m {
		if hit.ID != "n1" && hit.ID != "n2" {
			t.Errorf("unexpected hit %v", hit)
		}
	}
	// idf should let rare term dominate: "go" only appears in n1.
	m = c.TopMatches("GO", 0.01, 1)
	if len(m) != 1 || m[0].ID != "n1" {
		t.Errorf("TopMatches(GO) = %v, want [n1]", m)
	}
}

func TestCorpusScoreBounds(t *testing.T) {
	c := NewCorpus()
	docs := []string{"plasma membrane", "GO term", "entry pub", "abbrev term", "title"}
	for i, d := range docs {
		c.Add(string(rune('a'+i)), d)
	}
	queries := []string{"plasma", "membrane GO", "term", "nothing here", "plasma membrane", ""}
	for _, q := range queries {
		for _, m := range c.TopMatches(q, -1, 0) {
			if m.Score <= 0 || m.Score > 1+1e-9 {
				t.Errorf("TopMatches(%q) scores %s %v, outside (0,1]", q, m.ID, m.Score)
			}
		}
	}
	if m := c.TopMatches("plasma membrane", 0, 1); len(m) != 1 || m[0].ID != "a" || m[0].Score != 1 {
		t.Errorf("a document's own text should score 1: %v", m)
	}
}

func TestCorpusDeterministicOrdering(t *testing.T) {
	c := NewCorpus()
	c.Add("b", "shared token")
	c.Add("a", "shared token")
	m := c.TopMatches("shared", 0, 0)
	if len(m) != 2 || m[0].ID != "a" || m[1].ID != "b" {
		t.Errorf("tie-break should order by id: %v", m)
	}
}

func TestTokenizeCamelCase(t *testing.T) {
	got := Tokenize("goTermName")
	want := []string{"go", "term", "name"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("camel tokenize: got %v, want %v", got, want)
	}
}

// EditDistance returns the Levenshtein distance between a and b, operating
// on runes.
func EditDistance(a, b string) int {
	return editDistance(a, utf8.RuneCountInString(a), b, utf8.RuneCountInString(b))
}
