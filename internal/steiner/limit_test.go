package steiner

import (
	"math"
	"testing"
)

// limitsAround returns limits exactly at, just below and just above the
// cost of each tree of an unlimited answer, between consecutive costs,
// above the last one, and an arbitrary fraction frac/128 of the last one;
// for no answer, a few arbitrary limits. Just below is a millionth below:
// the search's slack admits a tree a few ulps over its limit. Just above is
// 1e-9 above, the limit core's feedback page searches under (its view's
// k-th cost plus the page's tie tolerance).
func limitsAround(want []Tree, frac uint8) []float64 {
	if len(want) == 0 {
		return []float64{0, 1, math.Inf(1)}
	}
	last := want[len(want)-1].Cost
	limits := []float64{0, last * float64(frac) / 128, 2*last + 1, math.Inf(1)}
	for i, t := range want {
		limits = append(limits, t.Cost, t.Cost*(1-1e-6), t.Cost+1e-9)
		if i > 0 {
			limits = append(limits, (want[i-1].Cost+t.Cost)/2)
		}
	}
	return limits
}

// checkLimitEquivalence requires every limit to leave the answer of the
// unlimited search unchanged, edge for edge and bit for bit, and a limited
// run that is not run again to return the prefix of that answer whose costs
// fit under the limit (with the search's slack): TopKSteinerUnder returns
// that prefix, and TopKSteinerStats runs again exactly when it is short of
// k trees.
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
		under, st := TopKSteinerUnder(g, terms, k, limit)
		assertSameTrees(t, what+": one limited run", under, want[:fit])
		if st.Reran {
			t.Fatalf("%s: limit %v: TopKSteinerUnder ran again", what, limit)
		}
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
	for _, c := range tiedRunSeeds {
		f.Add(c.seed, true, c.n, c.extra, c.numTerms, c.k, uint8(c.seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, plateau bool, n, extra, numTerms, k, frac uint8) {
		nn := 2 + int(n)%15
		g, terms, ov, ovTerms := differentialInputs(seed, plateau, nn, int(extra)%24, 2+int(numTerms)%min(4, nn-1))
		kk := 1 + int(k)%13
		checkLimitEquivalence(t, "graph", g, terms, kk, frac)
		checkLimitEquivalence(t, "overlay", ov, ovTerms, kk, frac)
	})
}

// tiedRunSeeds are plateau inputs (fuzz arguments, k 12 for 13 trees)
// whose answers hold a run of at least three trees tied at one cost after
// a cheaper tree, so limitsAround puts limits exactly on the run and 1e-9
// above it, where core's feedback page cuts: a limit there must return the
// whole run. The first is the page of k 5 over the costs 0, 0.3, 0.3, 0.7,
// 0.7, 0.7, 1, …: its k-th cost 0.7 ends a tied run.
var tiedRunSeeds = []struct {
	seed                  int64
	n, extra, numTerms, k uint8
}{
	{1009, 241, 151, 1, 12},
	{1014, 246, 186, 0, 12},
	{1019, 251, 221, 2, 12},
}

// TestTiedRunSeeds: each of tiedRunSeeds still has the tied run its
// comment promises, on the graph and on the overlay.
func TestTiedRunSeeds(t *testing.T) {
	for _, c := range tiedRunSeeds {
		nn := 2 + int(c.n)%15
		g, terms, ov, ovTerms := differentialInputs(c.seed, true, nn, int(c.extra)%24, 2+int(c.numTerms)%min(4, nn-1))
		for _, in := range []struct {
			g     GraphView
			terms []NodeID
		}{{g, terms}, {ov, ovTerms}} {
			want := TopKSteinerOn(in.g, in.terms, 1+int(c.k)%13)
			longest := 0
			for i := 0; i < len(want); {
				j := i
				for j < len(want) && want[j].Cost == want[i].Cost {
					j++
				}
				if i > 0 {
					longest = max(longest, j-i)
				}
				i = j
			}
			if longest < 3 {
				t.Errorf("seed %d: no run of three tied trees after the first among %d", c.seed, len(want))
			}
		}
	}
}
