package eval

import (
	"fmt"

	"qint/internal/core"
	"qint/internal/datasets"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// newInterProQ builds Q over InterPro-GO with both matchers registered and
// all pairwise associations generated at Y=2 (the lowest setting with 100%
// recall per Table 1) — the starting point of every §5.2.2 experiment.
func newInterProQ(corpus *datasets.InterProGOCorpus) (*core.Q, error) {
	opts := core.DefaultOptions()
	q := core.New(opts)
	for _, m := range matcherSet() {
		q.AddMatcher(m)
	}
	if err := q.AddTables(corpus.Tables...); err != nil {
		return nil, fmt.Errorf("eval: interpro catalog: %w", err)
	}
	if _, err := q.AlignAllPairs(); err != nil {
		return nil, err
	}
	return q, nil
}

// isGoldOnly reports whether every association edge of the tree is gold,
// and whether it uses any association edge at all. Tree edge ids resolve
// against the materialisation the tree came from (association edges are
// base edges, but the tree also carries overlay keyword edges).
func isGoldOnly(m core.Materialization, t steiner.Tree, gold map[string]bool) (goldOnly, usesAssoc bool) {
	goldOnly = true
	for _, eid := range t.Edges {
		e := m.Edge(eid)
		if e.Kind != searchgraph.EdgeAssociation {
			continue
		}
		usesAssoc = true
		if !gold[relstore.CanonicalPair(e.A, e.B)] {
			goldOnly = false
		}
	}
	return goldOnly, usesAssoc
}

// goldOracle simulates the paper's feedback source (§5.2): the domain
// expert marks as valid the best answer whose provenance uses only gold
// alignments, and marks the answers built on bad alignments as worse. The
// expert recognises the correct answer even when bad alignments currently
// outrank it, so the oracle searches beyond the view's top-k (a deeper
// result page) for the answer to endorse; the demoted set is drawn from the
// current top-k, excluding other gold-only answers (the expert would not
// push a correct answer down). Every tree comes from m.
func goldOracle(q *core.Q, m core.Materialization, gold map[string]bool) (target steiner.Tree, worse []steiner.Tree, ok bool) {
	const page = 20
	found := false
	for _, t := range q.KBestTrees(m, page) {
		goldOnly, usesAssoc := isGoldOnly(m, t, gold)
		if goldOnly && usesAssoc && !found {
			target, found = t, true
		}
	}
	if !found {
		return steiner.Tree{}, nil, false
	}
	for _, t := range q.KBestTrees(m, m.K) {
		if goldOnly, _ := isGoldOnly(m, t, gold); !goldOnly {
			worse = append(worse, t)
		}
	}
	return target, worse, true
}

// runFeedback executes `queries` feedback steps (one per keyword query)
// repeated `replays` times, invoking afterStep (if non-nil) after each step
// with the 1-based global step number. Views are created once and reused
// across replays, matching the paper's replayed feedback log.
func runFeedback(q *core.Q, corpus *datasets.InterProGOCorpus, queries, replays int, afterStep func(step int)) error {
	if queries > len(corpus.Queries) {
		queries = len(corpus.Queries)
	}
	views := make([]*core.View, queries)
	for i := 0; i < queries; i++ {
		v, err := q.Query(core.Request{Keywords: core.ParseKeywords(corpus.Queries[i])})
		if err != nil {
			return fmt.Errorf("eval: query %q: %w", corpus.Queries[i], err)
		}
		views[i] = v
	}
	step := 0
	for r := 0; r < replays; r++ {
		for i := 0; i < queries; i++ {
			step++
			m := views[i].Current()
			target, worse, ok := goldOracle(q, m, corpus.Gold)
			if ok && len(worse) > 0 {
				if err := q.FeedbackPreferTrees(m, target, worse); err != nil {
					return fmt.Errorf("eval: feedback step %d: %w", step, err)
				}
			}
			if afterStep != nil {
				afterStep(step)
			}
		}
	}
	return nil
}

// RunFig10 regenerates Figure 10: standalone PR curves for the metadata
// matcher and MAD, and the curve of Q after combining both and training on
// 10 feedback queries replayed ×4 (10×4).
func RunFig10() ([]Curve, error) {
	corpus := datasets.InterProGO()
	cat, err := catalogOf(corpus)
	if err != nil {
		return nil, err
	}
	curves := []Curve{}
	for _, m := range matcherSet() {
		curves = append(curves, matcherCurve(cat, m, corpus.Gold, 2))
	}
	q, err := newInterProQ(corpus)
	if err != nil {
		return nil, err
	}
	if err := runFeedback(q, corpus, 10, 4, nil); err != nil {
		return nil, err
	}
	curves = append(curves, qCostCurve("Q (10x4 feedback)", q, corpus.Gold))
	return curves, nil
}

// RunFig11 regenerates Figure 11: the matcher-average baseline plus Q
// curves at increasing feedback levels (1×1, 10×1, 10×2, 10×4).
func RunFig11() ([]Curve, error) {
	corpus := datasets.InterProGO()
	cat, err := catalogOf(corpus)
	if err != nil {
		return nil, err
	}
	curves := []Curve{averageCurve(cat, corpus.Gold, 2)}
	for _, level := range []struct{ queries, replays int }{
		{1, 1}, {10, 1}, {10, 2}, {10, 4},
	} {
		q, err := newInterProQ(corpus)
		if err != nil {
			return nil, err
		}
		if err := runFeedback(q, corpus, level.queries, level.replays, nil); err != nil {
			return nil, err
		}
		curves = append(curves, qCostCurve(
			fmt.Sprintf("Q (%dx%d)", level.queries, level.replays), q, corpus.Gold))
	}
	return curves, nil
}

// Fig12Row is one x-position of Figure 12: the average cost of gold versus
// non-gold association edges after a given number of feedback steps.
type Fig12Row struct {
	Step       int
	GoldAvg    float64
	NonGoldAvg float64
}

// RunFig12 regenerates Figure 12: 40 feedback steps (the 10 queries
// replayed 4 times), recording the gold/non-gold average edge costs after
// each step.
func RunFig12() ([]Fig12Row, error) {
	corpus := datasets.InterProGO()
	q, err := newInterProQ(corpus)
	if err != nil {
		return nil, err
	}
	var rows []Fig12Row
	record := func(step int) {
		g, ng, _, _ := q.GoldEdgeGap(corpus.Gold)
		rows = append(rows, Fig12Row{Step: step, GoldAvg: g, NonGoldAvg: ng})
	}
	if err := runFeedback(q, corpus, 10, 4, record); err != nil {
		return nil, err
	}
	return rows, nil
}

// Table2Row is one column of Table 2: the first feedback step at which the
// schema graph admits a pruning threshold with precision 100% at the given
// recall level.
type Table2Row struct {
	RecallLevel float64
	Steps       int // 0 = never reached within the feedback budget
}

// RunTable2 regenerates Table 2 over a 40-step feedback run.
func RunTable2() ([]Table2Row, error) {
	corpus := datasets.InterProGO()
	q, err := newInterProQ(corpus)
	if err != nil {
		return nil, err
	}
	levels := []float64{12.5, 25, 37.5, 50, 62.5, 75, 87.5, 100}
	firstStep := make(map[float64]int, len(levels))
	record := func(step int) {
		curve := qCostCurve("", q, corpus.Gold)
		for _, lvl := range levels {
			if firstStep[lvl] != 0 {
				continue
			}
			if p, ok := curve.MaxPrecisionAtRecall(lvl); ok && p >= 100-1e-9 {
				firstStep[lvl] = step
			}
		}
	}
	if err := runFeedback(q, corpus, 10, 4, record); err != nil {
		return nil, err
	}
	rows := make([]Table2Row, 0, len(levels))
	for _, lvl := range levels {
		rows = append(rows, Table2Row{RecallLevel: lvl, Steps: firstStep[lvl]})
	}
	return rows, nil
}
