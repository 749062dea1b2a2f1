package steiner

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestDijkstraQuickProperties verifies triangle-style consistency on random
// connected graphs: d(s,v) ≤ d(s,u) + w(u,v) for every edge (u,v).
func TestDijkstraQuickProperties(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, _ := randomConnectedGraph(r, 12+r.Intn(10), 10+r.Intn(15), 2)
		src := NodeID(r.Intn(g.NumNodes()))
		d := DijkstraOn(g, src)
		for e := 0; e < g.NumEdges(); e++ {
			edge := g.Edge(EdgeID(e))
			if d[edge.U]+edge.Cost < d[edge.V]-1e-9 ||
				d[edge.V]+edge.Cost < d[edge.U]-1e-9 {
				return false // relaxation not at fixpoint
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSteinerTreeContainmentInvariant: every node of every top-k tree lies
// within tree-cost of every terminal — the exact property that justifies
// NeighborhoodIntersect as a pruning region.
func TestSteinerTreeContainmentInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, terms := randomConnectedGraph(r, 12, 15, 2+r.Intn(2))
		trees := TopKSteinerOn(g, terms, 4)
		for _, tr := range trees {
			region := NeighborhoodIntersectOn(g, terms, tr.Cost+1e-9)
			for _, n := range tr.Nodes {
				if _, ok := region[n]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestTopKSubsetMonotone: the top-j trees are a prefix of the top-k trees
// for j < k.
func TestTopKSubsetMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 10; trial++ {
		g, terms := randomConnectedGraph(r, 14, 18, 3)
		k5 := TopKSteinerOn(g, terms, 5)
		k2 := TopKSteinerOn(g, terms, 2)
		if len(k2) > len(k5) {
			t.Fatalf("trial %d: |top2| > |top5|", trial)
		}
		for i := range k2 {
			if math.Abs(k2[i].Cost-k5[i].Cost) > 1e-9 {
				t.Errorf("trial %d: prefix cost mismatch at %d: %v vs %v",
					trial, i, k2[i].Cost, k5[i].Cost)
			}
		}
	}
}
