// Package meta implements Q's metadata schema matcher: the stand-in for the
// COMA++ 2008 API used by the paper (§3.2.1; the paper is named in
// PAPER.md). Like COMA++'s default configuration there, it combines structural
// relationship and substring/name matchers over metadata only — it never
// inspects instance data. It does pairwise matching between one relation
// pair at a time and reports calibrated confidences in [0,1].
//
// Each Match call profiles both relations' names and every attribute name
// once (text.Prepare) and scores the attribute pairs from those profiles,
// without allocating when the names are ASCII. It keeps nothing between
// calls. Every similarity is
// computed from integer counts and lengths, so a confidence is the same
// float64 as scoring the plain strings with text's wrappers would give.
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
	// The owning relations' name similarity is a mild structural prior:
	// attributes of similarly-named relations (entry2pub vs method2pub)
	// are likelier to align.
	ra, rb := text.Prepare(a.Name), text.Prepare(b.Name)
	structSim := nameSimilarity(&ra, &rb)
	pa, pb := prepareAttributes(a), prepareAttributes(b)
	relA, relB := a.QualifiedName(), b.QualifiedName()
	var out []matcher.Alignment
	for i, aa := range a.Attributes {
		for j, bb := range b.Attributes {
			conf := m.score(&pa[i], &pb[j], aa.Type, bb.Type, structSim)
			if conf < m.MinConfidence {
				continue
			}
			out = append(out, matcher.Alignment{
				A:          relstore.AttrRef{Relation: relA, Attr: aa.Name},
				B:          relstore.AttrRef{Relation: relB, Attr: bb.Name},
				Confidence: conf,
			})
		}
	}
	matcher.SortByConfidence(out)
	return out
}

// prepareAttributes profiles the attribute names of r, in order.
func prepareAttributes(r *relstore.Relation) []text.Prepared {
	out := make([]text.Prepared, len(r.Attributes))
	for i, at := range r.Attributes {
		out[i] = text.Prepare(at.Name)
	}
	return out
}

// score combines name, structural and type evidence for one attribute pair.
func (m *Matcher) score(a, b *text.Prepared, ta, tb relstore.Type, structSim float64) float64 {
	name := nameSimilarity(a, b)
	typ := typeCompatibility(ta, tb)
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
func nameSimilarity(a, b *text.Prepared) float64 {
	if a.Norm == "" || b.Norm == "" {
		return 0
	}
	if a.Norm == b.Norm {
		return 1
	}
	best := a.Containment(b)
	if s := a.Trigram(b); s > best {
		best = s
	}
	if s := a.Edit(b); s > best {
		best = s
	}
	return best
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
