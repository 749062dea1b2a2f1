package eval

import (
	"fmt"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/matcher/mad"
	"qint/internal/relstore"
)

// AblationRow is one configuration of the binning ablation: the feature
// treatment, the final gold/non-gold average-cost gap after 10×4 feedback,
// and the best precision the trained system achieves at 87.5 % recall.
type AblationRow struct {
	Mode                  string
	GoldAvg               float64
	NonGoldAvg            float64
	PrecisionAtHighRecall float64
}

// RunAblationBinning compares binned confidence features (the paper's §4
// treatment) against raw real-valued confidences, holding everything else
// fixed. Expected shape: binning yields a larger gold/non-gold separation
// and higher precision, matching the paper's warning that raw real-valued
// features destabilise MIRA.
func RunAblationBinning() ([]AblationRow, error) {
	corpus := datasets.InterProGO()
	var rows []AblationRow
	for _, mode := range []struct {
		name string
		raw  bool
	}{
		{"binned (paper §4)", false},
		{"raw confidences", true},
	} {
		opts := core.DefaultOptions()
		opts.RawConfidences = mode.raw
		q := core.New(opts)
		for _, m := range matcherSet() {
			q.AddMatcher(m)
		}
		if err := q.AddTables(corpus.Tables...); err != nil {
			return nil, fmt.Errorf("eval: ablation: %w", err)
		}
		if _, err := q.AlignAllPairs(); err != nil {
			return nil, err
		}
		if err := runFeedback(q, corpus, 10, 4, nil); err != nil {
			return nil, err
		}
		gold, nonGold, _, _ := q.GoldEdgeGap(corpus.Gold)
		curve := qCostCurve(mode.name, q, corpus.Gold)
		p, _ := curve.MaxPrecisionAtRecall(87.5)
		rows = append(rows, AblationRow{
			Mode:                  mode.name,
			GoldAvg:               gold,
			NonGoldAvg:            nonGold,
			PrecisionAtHighRecall: p,
		})
	}
	return rows, nil
}

// PropagationRow compares label-propagation variants on the Table 1
// matcher-quality protocol.
type PropagationRow struct {
	Algorithm string
	Y         int
	PR
}

// RunAblationPropagation compares MAD against classical LP-ZGL harmonic
// propagation over the identical column–value graph, using the Table 1
// protocol (top-Y edges per attribute vs the 8 gold edges). Expected shape:
// MAD's abandonment probability yields better precision on the high-degree
// value nodes of the InterPro-GO graph (the paper's §3.2.2 argument for
// choosing MAD within the label-propagation family).
func RunAblationPropagation() ([]PropagationRow, error) {
	corpus := datasets.InterProGO()
	cat := relstore.NewCatalog()
	for _, t := range corpus.Tables {
		if err := cat.AddTable(t); err != nil {
			return nil, fmt.Errorf("eval: propagation ablation: %w", err)
		}
	}
	var rows []PropagationRow
	for _, y := range []int{1, 2} {
		madM := mad.New()
		pr := PrecisionRecall(topYEdges(cat, madM, y), corpus.Gold)
		rows = append(rows, PropagationRow{Algorithm: "MAD", Y: y, PR: pr})

		lp := mad.New()
		lp.UseLPZGL(25)
		pr = PrecisionRecall(topYEdges(cat, lp, y), corpus.Gold)
		rows = append(rows, PropagationRow{Algorithm: "LP-ZGL", Y: y, PR: pr})
	}
	return rows, nil
}
