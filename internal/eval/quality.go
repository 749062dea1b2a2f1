package eval

import (
	"fmt"
	"runtime"
	"sort"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher"
	"qint/internal/matcher/mad"
	"qint/internal/matcher/meta"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

func steinerEdge(i int) steiner.EdgeID { return steiner.EdgeID(i) }

// catalogOf loads an InterPro-GO corpus into a fresh, indexed catalog.
func catalogOf(corpus *datasets.InterProGOCorpus) (*relstore.Catalog, error) {
	cat := relstore.NewCatalog()
	for _, t := range corpus.Tables {
		if err := cat.AddTable(t); err != nil {
			return nil, fmt.Errorf("eval: catalog: %w", err)
		}
	}
	cat.BuildValueIndex(runtime.GOMAXPROCS(0))
	return cat, nil
}

// Table1Row is one row of Table 1: a matcher's precision/recall/F over the
// InterPro-GO gold standard when the top-Y alignments per attribute are
// taken.
type Table1Row struct {
	Y      int
	System string
	PR
}

// matcherSet builds the two matchers as configured in §5.2.1.
func matcherSet() []matcher.Matcher {
	return []matcher.Matcher{meta.New(), mad.New()}
}

// RunTable1 regenerates Table 1: per matcher, per Y ∈ {1,2,5}, precision
// and recall of the induced top-Y-per-attribute alignment edges against the
// 8 gold edges of Figure 9.
func RunTable1() ([]Table1Row, error) {
	corpus := datasets.InterProGO()
	cat, err := catalogOf(corpus)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, y := range []int{1, 2, 5} {
		for _, m := range matcherSet() {
			predicted := topYEdges(cat, m, y)
			pr := PrecisionRecall(predicted, corpus.Gold)
			rows = append(rows, Table1Row{Y: y, System: systemName(m.Name()), PR: pr})
		}
	}
	return rows, nil
}

// systemName maps matcher names to the labels the paper uses.
func systemName(n string) string {
	switch n {
	case "meta":
		return "META (COMA++ role)"
	case "mad":
		return "MAD"
	default:
		return n
	}
}

// topYEdges runs one matcher over every relation pair of the catalog and
// keeps, for each attribute, its Y most confident partners; the result is
// the set of canonical pairs that would enter the search graph.
func topYEdges(cat *relstore.Catalog, m matcher.Matcher, y int) map[string]bool {
	rels := cat.Relations()
	// Candidate partners per attribute, across all relation pairs.
	perAttr := make(map[relstore.AttrRef][]matcher.Alignment)
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			for _, al := range m.Match(cat, rels[i], rels[j]) {
				perAttr[al.A] = append(perAttr[al.A], al)
				perAttr[al.B] = append(perAttr[al.B], matcher.Alignment{
					A: al.B, B: al.A, Confidence: al.Confidence,
				})
			}
		}
	}
	predicted := make(map[string]bool)
	for _, cands := range perAttr {
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].Confidence != cands[j].Confidence {
				return cands[i].Confidence > cands[j].Confidence
			}
			return cands[i].B.String() < cands[j].B.String()
		})
		seen := make(map[string]bool)
		count := 0
		for _, al := range cands {
			key := relstore.CanonicalPair(al.A, al.B)
			if seen[key] {
				continue
			}
			seen[key] = true
			predicted[key] = true
			count++
			if count >= y {
				break
			}
		}
	}
	return predicted
}

// matcherCurve builds a matcher's standalone PR curve by sweeping a
// confidence threshold over its top-Y candidate edges (Y=2, the Figure 10
// setting).
func matcherCurve(cat *relstore.Catalog, m matcher.Matcher, gold map[string]bool, y int) Curve {
	rels := cat.Relations()
	best := make(map[string]float64)
	perAttr := make(map[relstore.AttrRef][]matcher.Alignment)
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			for _, al := range m.Match(cat, rels[i], rels[j]) {
				perAttr[al.A] = append(perAttr[al.A], al)
				perAttr[al.B] = append(perAttr[al.B], matcher.Alignment{
					A: al.B, B: al.A, Confidence: al.Confidence,
				})
			}
		}
	}
	for _, cands := range perAttr {
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].Confidence != cands[j].Confidence {
				return cands[i].Confidence > cands[j].Confidence
			}
			return cands[i].B.String() < cands[j].B.String()
		})
		count := 0
		seen := make(map[string]bool)
		for _, al := range cands {
			key := relstore.CanonicalPair(al.A, al.B)
			if seen[key] {
				continue
			}
			seen[key] = true
			if al.Confidence > best[key] {
				best[key] = al.Confidence
			}
			count++
			if count >= y {
				break
			}
		}
	}
	var cands []scored
	for pair, conf := range best {
		cands = append(cands, scored{pair: pair, score: -conf}) // higher conf first
	}
	return curveFromScores(systemName(m.Name()), cands, gold)
}

// averageCurve is the no-feedback baseline of Figure 11: every candidate
// edge scored by the plain average of the matchers' confidences.
func averageCurve(cat *relstore.Catalog, gold map[string]bool, y int) Curve {
	ms := matcherSet()
	sums := make(map[string]float64)
	for _, m := range ms {
		for pair, conf := range matcherEdgeConfidences(cat, m, y) {
			sums[pair] += conf
		}
	}
	var cands []scored
	for pair, s := range sums {
		// Divide by every matcher, not by the ones that proposed the pair:
		// an edge proposed by one matcher averages against 0 for the other.
		cands = append(cands, scored{pair: pair, score: -s / float64(len(ms))})
	}
	return curveFromScores("Average (META, MAD)", cands, gold)
}

// matcherEdgeConfidences returns each candidate pair's best confidence for
// one matcher under top-Y-per-attribute selection.
func matcherEdgeConfidences(cat *relstore.Catalog, m matcher.Matcher, y int) map[string]float64 {
	rels := cat.Relations()
	best := make(map[string]float64)
	for i := 0; i < len(rels); i++ {
		for j := i + 1; j < len(rels); j++ {
			for _, al := range matcher.TopYPerAttribute(m.Match(cat, rels[i], rels[j]), y) {
				key := relstore.CanonicalPair(al.A, al.B)
				if al.Confidence > best[key] {
					best[key] = al.Confidence
				}
			}
		}
	}
	return best
}

// qCostCurve sweeps the pruning threshold over Q's current association-edge
// costs (ascending cost = descending quality), the Figure 10/11 treatment
// of the combined-and-learned system.
func qCostCurve(name string, q *core.Q, gold map[string]bool) Curve {
	var cands []scored
	for _, a := range q.CurrentGraph().AssociationList() {
		pair := relstore.CanonicalPair(a.A, a.B)
		cands = append(cands, scored{pair: pair, score: a.Cost})
	}
	return curveFromScores(name, cands, gold)
}
