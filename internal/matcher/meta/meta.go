// Package meta implements Q's metadata schema matcher: the stand-in for the
// COMA++ 2008 API used by the paper (§3.2.1; the paper is named in
// PAPER.md). Like COMA++'s default configuration there, it combines structural
// relationship and substring/name matchers over metadata only — it never
// inspects instance data. It does pairwise matching between one relation
// pair at a time and reports calibrated confidences in [0,1].
package meta

import (
	"qint/internal/matcher"
	"qint/internal/relstore"
	"qint/internal/text"
)

// Matcher is the metadata matcher. The zero value uses sensible defaults;
// fields allow ablation of individual signal weights.
type Matcher struct {
	// NameWeight scales the attribute-name similarity component.
	NameWeight float64
	// StructWeight scales the structural component (similarity of the
	// owning relations' names — COMA++'s "structural relationship" matcher
	// reduced to the two-level relation/attribute hierarchy Q works with).
	StructWeight float64
	// TypeWeight scales the declared-type compatibility component.
	TypeWeight float64
	// MinConfidence suppresses alignments scoring below this floor.
	MinConfidence float64
}

// New returns a Matcher with the default weighting (name-dominant, as in
// COMA++'s metadata mode).
func New() *Matcher {
	return &Matcher{
		NameWeight:    0.70,
		StructWeight:  0.15,
		TypeWeight:    0.15,
		MinConfidence: 0.30,
	}
}

// Name implements matcher.Matcher.
func (m *Matcher) Name() string { return "meta" }

// Match implements matcher.Matcher: every attribute pair between a and b is
// scored; pairs above MinConfidence are returned best-first.
func (m *Matcher) Match(_ *relstore.Catalog, a, b *relstore.Relation) []matcher.Alignment {
	if a == nil || b == nil {
		return nil
	}
	structSim := relationNameSimilarity(a, b)
	var out []matcher.Alignment
	for _, aa := range a.Attributes {
		for _, bb := range b.Attributes {
			conf := m.score(aa, bb, structSim)
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

// score combines name, structural and type evidence for one attribute pair.
func (m *Matcher) score(a, b relstore.Attribute, structSim float64) float64 {
	name := nameSimilarity(a.Name, b.Name)
	typ := typeCompatibility(a.Type, b.Type)
	conf := m.NameWeight*name + m.StructWeight*structSim + m.TypeWeight*typ
	// Pure structure/type evidence with no name signal is noise; COMA++'s
	// combiner behaves the same way (a zero name similarity vetoes).
	if name < 0.05 {
		return 0
	}
	if conf > 1 {
		conf = 1
	}
	return conf
}

// nameSimilarity is the max of three complementary string measures, the
// analogue of COMA++ aggregating its name and substring sub-matchers by max.
func nameSimilarity(a, b string) float64 {
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

// relationNameSimilarity compares the owning relations' names, giving a mild
// structural prior: attributes of similarly-named relations (entry2pub vs
// method2pub) are likelier to align.
func relationNameSimilarity(a, b *relstore.Relation) float64 {
	return nameSimilarity(a.Name, b.Name)
}

// typeCompatibility scores declared domains: identical types 1, both
// numeric 0.7, numeric-vs-text 0.
func typeCompatibility(a, b relstore.Type) float64 {
	if a == b {
		return 1
	}
	aNum := a == relstore.TypeInt || a == relstore.TypeFloat
	bNum := b == relstore.TypeInt || b == relstore.TypeFloat
	if aNum && bNum {
		return 0.7
	}
	if aNum != bNum {
		return 0
	}
	return 1
}
