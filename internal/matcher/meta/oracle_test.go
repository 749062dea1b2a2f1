package meta

import (
	"reflect"
	"testing"

	"qint/internal/datasets"
	"qint/internal/matcher"
	"qint/internal/relstore"
	"qint/internal/text"
)

// matchOracle is Match as it was before names were prepared: every pair
// scored from the plain strings through text's wrappers.
func (m *Matcher) matchOracle(a, b *relstore.Relation) []matcher.Alignment {
	if a == nil || b == nil {
		return nil
	}
	structSim := nameSimilarityOracle(a.Name, b.Name)
	var out []matcher.Alignment
	for _, aa := range a.Attributes {
		for _, bb := range b.Attributes {
			conf := m.scoreOracle(aa, bb, structSim)
			if conf < m.MinConfidence {
				continue
			}
			out = append(out, matcher.Alignment{
				A:          relstore.AttrRef{Relation: a.QualifiedName(), Attr: aa.Name},
				B:          relstore.AttrRef{Relation: b.QualifiedName(), Attr: bb.Name},
				Confidence: conf,
			})
		}
	}
	matcher.SortByConfidence(out)
	return out
}

func (m *Matcher) scoreOracle(a, b relstore.Attribute, structSim float64) float64 {
	name := nameSimilarityOracle(a.Name, b.Name)
	typ := typeCompatibility(a.Type, b.Type)
	conf := m.NameWeight*name + m.StructWeight*structSim + m.TypeWeight*typ
	if name < 0.05 {
		return 0
	}
	if conf > 1 {
		conf = 1
	}
	return conf
}

func nameSimilarityOracle(a, b string) float64 {
	na, nb := text.Normalize(a), text.Normalize(b)
	if na == "" || nb == "" {
		return 0
	}
	if na == nb {
		return 1
	}
	best := text.ContainmentSimilarity(a, b)
	if s := text.TrigramSimilarity(na, nb); s > best {
		best = s
	}
	if s := text.EditSimilarity(na, nb); s > best {
		best = s
	}
	return best
}

// nameCases are the names that need care: equal byte lengths where the
// containment ratio depends on argument order, names that normalise to
// empty, names identical after normalisation, unicode next to the trigram
// padding, and names longer than one 64-rune word.
var nameCases = []string{
	"a bc d", "abcd e", "___", "", "Entry_AC", "entry ac", "entry-ac",
	"pub", "publication", "pub_id", "publication_id", "é", "éé_e",
	"東京_id", "naïve", "#id", "id#", "İd",
	"a_very_long_attribute_name_that_goes_past_one_machine_word_of_runes",
	"a_very_long_attribute_name_that_goes_past_one_machine_word_of_bytes",
}

// TestMatchEqualsOracle requires Match to return exactly the oracle's
// alignments, field for field and in order, on every ordered relation pair
// of GBCO, InterPro+GO and a synthetic catalog, and on relations built from
// the names that need care.
func TestMatchEqualsOracle(t *testing.T) {
	var corpora [][]*relstore.Table
	corpora = append(corpora, datasets.GBCO().Tables, datasets.InterProGO().Tables,
		datasets.SyntheticRelations(24, 7))
	var careRels []*relstore.Table
	for i := 0; i+3 <= len(nameCases); i++ {
		rel := &relstore.Relation{Source: "care", Name: nameCases[i]}
		for j, n := range nameCases[i : i+3] {
			rel.Attributes = append(rel.Attributes, relstore.Attribute{Name: n, Type: relstore.Type(j % 3)})
		}
		careRels = append(careRels, &relstore.Table{Relation: rel})
	}
	corpora = append(corpora, careRels)
	m := New()
	pairs, aligned := 0, 0
	for _, tables := range corpora {
		for _, ta := range tables {
			for _, tb := range tables {
				got := m.Match(nil, ta.Relation, tb.Relation)
				want := m.matchOracle(ta.Relation, tb.Relation)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("Match(%s, %s):\n got %v\nwant %v",
						ta.Relation.QualifiedName(), tb.Relation.QualifiedName(), got, want)
				}
				pairs++
				aligned += len(got)
			}
		}
	}
	if aligned == 0 {
		t.Fatalf("%d relation pairs produced no alignment: the comparison is vacuous", pairs)
	}
}

// FuzzNameSimilarity compares prepared scoring with the composition of the
// three plain-string measures.
func FuzzNameSimilarity(f *testing.F) {
	for i, a := range nameCases {
		f.Add(a, nameCases[(i+1)%len(nameCases)])
		f.Add(a, a)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		pa, pb := text.Prepare(a), text.Prepare(b)
		if got, want := nameSimilarity(&pa, &pb), nameSimilarityOracle(a, b); got != want {
			t.Fatalf("nameSimilarity(%q, %q) = %v, oracle %v", a, b, got, want)
		}
	})
}

// TestMatchScoringAllocs pins that scoring does not allocate: with no
// alignment to return, a Match allocates exactly what preparing its names
// does, plus the two attribute profile slices and the two qualified
// relation names.
func TestMatchScoringAllocs(t *testing.T) {
	r := &relstore.Relation{Source: "s", Name: "Gene_Info"}
	names := []string{r.Name, r.Name}
	for i := 0; i < 12; i++ {
		n := string(rune('a'+i)) + "_Attr " + string(rune('z'-i))
		r.Attributes = append(r.Attributes, relstore.Attribute{Name: n})
		names = append(names, n)
	}
	for _, at := range r.Attributes {
		names = append(names, at.Name)
	}
	m := New()
	m.MinConfidence = 2 // nothing is returned
	prep := testing.AllocsPerRun(50, func() {
		for _, n := range names {
			text.Prepare(n)
		}
	})
	if got := testing.AllocsPerRun(50, func() { m.Match(nil, r, r) }); got != prep+4 {
		t.Errorf("Match of 12 × 12 attributes: %v allocs, want %v (preparation) + 4", got, prep)
	}
}
