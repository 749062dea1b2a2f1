// Package eval contains the experiment harnesses that regenerate every
// table and figure of the paper's §5 evaluation (the paper is named in
// PAPER.md), plus the precision/recall machinery they share. Each RunXxx
// function returns the rows or series the paper reports; cmd/qbench prints
// them.
package eval

import "sort"

// PR bundles precision, recall and F-measure (percentages, as the paper
// reports them).
type PR struct {
	Precision, Recall, F1 float64
}

// PrecisionRecall compares a predicted set against a gold set (both keyed
// by canonical "a~b" pairs). Empty predictions give precision 0 by
// convention (the paper never reports the undefined 0/0 case).
func PrecisionRecall(predicted, gold map[string]bool) PR {
	if len(gold) == 0 {
		return PR{}
	}
	tp := 0
	for p := range predicted {
		if gold[p] {
			tp++
		}
	}
	var pr PR
	if len(predicted) > 0 {
		pr.Precision = 100 * float64(tp) / float64(len(predicted))
	}
	pr.Recall = 100 * float64(tp) / float64(len(gold))
	if pr.Precision+pr.Recall > 0 {
		pr.F1 = 2 * pr.Precision * pr.Recall / (pr.Precision + pr.Recall)
	}
	return pr
}

// PRPoint is one precision-recall curve point (percent units).
type PRPoint struct {
	Recall, Precision float64
}

// Curve is a named precision-recall curve.
type Curve struct {
	Name   string
	Points []PRPoint
}

// scored is one candidate edge with an ordering score (lower-is-better for
// costs, higher-is-better flipped by the caller).
type scored struct {
	pair  string
	score float64
}

// curveFromScores sweeps a threshold over scored candidates (ascending
// score = descending quality) and emits one PR point per distinct
// threshold. Used for both confidence curves (pass negated confidences) and
// edge-cost curves.
func curveFromScores(name string, candidates []scored, gold map[string]bool) Curve {
	sort.SliceStable(candidates, func(i, j int) bool {
		if candidates[i].score != candidates[j].score {
			return candidates[i].score < candidates[j].score
		}
		return candidates[i].pair < candidates[j].pair
	})
	c := Curve{Name: name}
	predicted := make(map[string]bool)
	for i := 0; i < len(candidates); {
		j := i
		for j < len(candidates) && candidates[j].score == candidates[i].score {
			predicted[candidates[j].pair] = true
			j++
		}
		pr := PrecisionRecall(predicted, gold)
		c.Points = append(c.Points, PRPoint{Recall: pr.Recall, Precision: pr.Precision})
		i = j
	}
	return c
}

// MaxPrecisionAtRecall returns the best precision any curve point achieves
// with recall ≥ the given level, and whether any such point exists.
func (c Curve) MaxPrecisionAtRecall(level float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range c.Points {
		if p.Recall >= level-1e-9 {
			ok = true
			if p.Precision > best {
				best = p.Precision
			}
		}
	}
	return best, ok
}
