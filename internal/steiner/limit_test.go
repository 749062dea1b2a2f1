package steiner

import (
	"math"
	"slices"
	"testing"
)

// limitedRun is one search under limit that is not run again when it comes
// back short: what TopKSteinerStats has before it checks the answer's
// length.
func limitedRun(g GraphView, terminals []NodeID, k int, limit float64) []Tree {
	terms := slices.Compact(slices.Sorted(slices.Values(terminals)))
	s := acquireSearch()
	defer releaseSearch(s)
	return s.run(g, terms, k, limit)
}

// limitsAround returns limits exactly at and just below the cost of each
// tree of an unlimited answer, between consecutive costs, above the last
// one, and an arbitrary fraction frac/128 of the last one; for no answer, a
// few arbitrary limits. Just below is a millionth below: the search's slack
// admits a tree a few ulps over its limit.
func limitsAround(want []Tree, frac uint8) []float64 {
	if len(want) == 0 {
		return []float64{0, 1, math.Inf(1)}
	}
	last := want[len(want)-1].Cost
	limits := []float64{0, last * float64(frac) / 128, 2*last + 1, math.Inf(1)}
	for i, t := range want {
		limits = append(limits, t.Cost, t.Cost*(1-1e-6))
		if i > 0 {
			limits = append(limits, (want[i-1].Cost+t.Cost)/2)
		}
	}
	return limits
}

// checkLimitEquivalence requires every limit to leave the answer of the
// unlimited search unchanged, edge for edge and bit for bit, and a limited
// run that is not run again to return the prefix of that answer whose costs
// fit under the limit (with the search's slack): so TopKSteinerStats runs
// again exactly when that prefix is short of k trees.
func checkLimitEquivalence(t *testing.T, what string, g GraphView, terms []NodeID, k int, frac uint8) {
	t.Helper()
	want, _ := TopKSteinerStats(g, terms, k, math.Inf(1))
	for _, limit := range limitsAround(want, frac) {
		fit := 0
		for fit < len(want) && want[fit].Cost <= slack(limit) {
			fit++
		}
		got, st := TopKSteinerStats(g, terms, k, limit)
		assertSameTrees(t, what+": limited", got, want)
		if reran := !math.IsInf(limit, 1) && fit < k; st.Reran != reran {
			t.Fatalf("%s: limit %v (%d of %d answers fit, k %d): Reran %v, want %v", what, limit, fit, len(want), k, st.Reran, reran)
		}
		assertSameTrees(t, what+": one limited run", limitedRun(g, terms, k, limit), want[:fit])
	}
}

// FuzzTopKSteinerLimitEquivalence: the limit TopKSteinerStats takes is a
// pure performance hint. Limits below, at and above the k-th answer's cost
// give the unlimited answer, on the differential inputs (distinct and
// plateau costs, graphs and overlays); a run that is not repeated returns
// the unlimited answers that fit under its limit.
func FuzzTopKSteinerLimitEquivalence(f *testing.F) {
	differentialCases(func(seed int64, plateau bool, n, extra, numTerms, k int) {
		f.Add(seed, plateau, uint8(n), uint8(extra), uint8(numTerms), uint8(k), uint8(seed*37))
	})
	f.Fuzz(func(t *testing.T, seed int64, plateau bool, n, extra, numTerms, k, frac uint8) {
		nn := 2 + int(n)%15
		g, terms, ov, ovTerms := differentialInputs(seed, plateau, nn, int(extra)%24, 2+int(numTerms)%min(4, nn-1))
		kk := 1 + int(k)%13
		checkLimitEquivalence(t, "graph", g, terms, kk, frac)
		checkLimitEquivalence(t, "overlay", ov, ovTerms, kk, frac)
	})
}
