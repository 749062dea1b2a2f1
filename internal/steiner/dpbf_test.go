package steiner

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// plateauGraph is randomConnectedGraph with every cost drawn from
// {0, 0.3, 0.7}: few distinct sums, so almost every pop ties with its
// neighbours and the order is decided by the tie rules.
func plateauGraph(r *rand.Rand, n, extraEdges, numTerms int) (*Graph, []NodeID) {
	levels := []float64{0, 0.3, 0.7}
	g, terms := randomConnectedGraph(r, n, extraEdges, numTerms)
	for e := 0; e < g.NumEdges(); e++ {
		g.SetCost(EdgeID(e), levels[r.Intn(len(levels))])
	}
	return g, terms
}

// overlayOf re-expresses g as an overlay: the first half of its nodes and
// the edges among them form the base, everything else is overlay-added, and
// each terminal hangs off a fresh overlay node (as keyword nodes do in Q)
// that replaces it in the terminal list. Ids of g's own nodes are preserved.
func overlayOf(r *rand.Rand, g *Graph, terms []NodeID) (*Overlay, []NodeID) {
	half := g.NumNodes() / 2
	base := NewGraph()
	for i := 0; i < half; i++ {
		base.AddNode()
	}
	var later []Edge
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(EdgeID(e))
		if int(edge.U) < half && int(edge.V) < half {
			base.AddEdge(edge.U, edge.V, edge.Cost)
		} else {
			later = append(later, edge)
		}
	}
	ov := NewOverlay(base)
	for i := half; i < g.NumNodes(); i++ {
		ov.AddNode()
	}
	for _, edge := range later {
		ov.AddEdge(edge.U, edge.V, edge.Cost)
	}
	out := make([]NodeID, len(terms))
	for i, t := range terms {
		out[i] = ov.AddNode()
		ov.AddEdge(out[i], t, []float64{0, 0.3, 0.7}[r.Intn(3)])
	}
	return ov, out
}

// assertSameTrees requires the same trees in the same order with bit-equal
// costs.
func assertSameTrees(t *testing.T, what string, got, want []Tree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, oracle %d\n got  %v\n want %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) ||
			!slices.Equal(got[i].Edges, want[i].Edges) || !slices.Equal(got[i].Nodes, want[i].Nodes) {
			t.Fatalf("%s: tree %d differs\n got  %v\n want %v", what, i, got, want)
		}
	}
}

// checkAgainstOracle runs one differential case: over the graph itself and
// over an overlay re-expression of it.
func checkAgainstOracle(t *testing.T, seed int64, plateau bool, n, extra, numTerms, k int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	gen := randomConnectedGraph
	if plateau {
		gen = plateauGraph
	}
	g, terms := gen(r, n, extra, numTerms)
	assertSameTrees(t, "graph", TopKSteinerOn(g, terms, k), oracleTopKSteinerOn(g, terms, k))
	ov, ovTerms := overlayOf(r, g, terms)
	assertSameTrees(t, "overlay", TopKSteinerOn(ov, ovTerms, k), oracleTopKSteinerOn(ov, ovTerms, k))
}

// differentialCases enumerates the seeded inputs of the differential test,
// which also seed the fuzz corpus.
func differentialCases(visit func(seed int64, plateau bool, n, extra, numTerms, k int)) {
	seed := int64(0)
	for _, plateau := range []bool{false, true} {
		for numTerms := 2; numTerms <= 5; numTerms++ {
			for _, k := range []int{1, 5, 13} {
				for _, n := range []int{6, 11, 16} {
					seed++
					visit(seed, plateau, n, n+int(seed%7), numTerms, k)
				}
			}
		}
		// Larger graphs, where the search stops long before it has seen
		// most of the graph.
		for numTerms := 2; numTerms <= 3; numTerms++ {
			seed++
			visit(seed, plateau, 60, 90, numTerms, 5)
		}
	}
}

// TestTopKSteinerMatchesOracle: the arena search returns exactly what the
// pre-rewrite implementation returns under the same total order — same
// trees, same positions, bit-equal costs — with distinct costs and with
// plateau costs, for 2–5 terminals and k ∈ {1, 5, 13}.
func TestTopKSteinerMatchesOracle(t *testing.T) {
	differentialCases(func(seed int64, plateau bool, n, extra, numTerms, k int) {
		checkAgainstOracle(t, seed, plateau, n, extra, numTerms, k)
	})
}

func FuzzTopKSteinerEquivalence(f *testing.F) {
	differentialCases(func(seed int64, plateau bool, n, extra, numTerms, k int) {
		f.Add(seed, plateau, uint8(n), uint8(extra), uint8(numTerms), uint8(k))
	})
	f.Fuzz(func(t *testing.T, seed int64, plateau bool, n, extra, numTerms, k uint8) {
		nn := 2 + int(n)%15
		checkAgainstOracle(t, seed, plateau, nn, int(extra)%24, 2+int(numTerms)%min(4, nn-1), 1+int(k)%13)
	})
}

// TestTopKSteinerOrderIndependent: the answer is a function of the terminal
// set and the graph's content, not of the order the terminals were listed
// in or of which copy of the graph is searched.
func TestTopKSteinerOrderIndependent(t *testing.T) {
	r := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 30; trial++ {
		g, terms := plateauGraph(r, 14, 20, 2+trial%4)
		want := TopKSteinerOn(g, terms, 7)
		if len(want) == 0 {
			t.Fatalf("trial %d: no trees on a connected graph", trial)
		}
		perm := slices.Clone(terms)
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		assertSameTrees(t, "permuted terminals", TopKSteinerOn(g, perm, 7), want)
		assertSameTrees(t, "clone", TopKSteinerOn(g.Clone(), terms, 7), want)
		assertSameTrees(t, "again", TopKSteinerOn(g, terms, 7), want)
	}
}

// TestTopKSteinerConcurrent: searches share nothing but the scratch free list, so
// any number may run at once over one frozen view (Q's readers do) and each
// gets the serial answer.
func TestTopKSteinerConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g, terms := plateauGraph(r, 40, 60, 3)
	ov, ovTerms := overlayOf(r, g, terms)
	want := TopKSteinerOn(ov, ovTerms, 6)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := TopKSteinerOn(ov, ovTerms, 6)
				if len(got) != len(want) {
					t.Errorf("%d trees, serial run %d", len(got), len(want))
					return
				}
				for j := range want {
					if got[j].Cost != want[j].Cost || !slices.Equal(got[j].Edges, want[j].Edges) {
						t.Errorf("tree %d is %v, serial run %v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestTopKSteinerStats: the work counters add up, and both drops run —
// states fill up, and candidates exceed the bound — on a search of a few
// thousand pops.
func TestTopKSteinerStats(t *testing.T) {
	g, terms := benchGraph()
	trees, st := TopKSteinerStats(g, terms, 5)
	if len(trees) != 5 {
		t.Fatalf("got %d trees, want 5", len(trees))
	}
	if st.Pops == 0 || st.Pushes < st.Pops || st.Recorded == 0 || st.Recorded > st.Pops {
		t.Errorf("inconsistent counters: %+v", st)
	}
	if st.Pruned == 0 {
		t.Errorf("nothing pruned on a 400-node graph: %+v", st)
	}
	if st.BoundPruned == 0 {
		t.Errorf("nothing bound-pruned on a 400-node graph: %+v", st)
	}
	if st.Truncated {
		t.Errorf("truncated: %+v", st)
	}
}

// TestTopKSteinerBoundMatchesOracle: at k = 1 and k = 13 the bound prune
// fires (so it is what is under test) and the answer is still the oracle's,
// tree for tree, on graphs and overlays.
func TestTopKSteinerBoundMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, k := range []int{1, 13} {
			r := rand.New(rand.NewSource(seed))
			g, terms := plateauGraph(r, 20+int(seed)*4, 30+int(seed)*5, 2+int(seed)%3)
			got, st := TopKSteinerStats(g, terms, k)
			if st.BoundPruned == 0 {
				t.Errorf("seed %d k %d: the bound never fired: %+v", seed, k, st)
			}
			assertSameTrees(t, "graph", got, oracleTopKSteinerOn(g, terms, k))
			ov, ovTerms := overlayOf(r, g, terms)
			assertSameTrees(t, "overlay", TopKSteinerOn(ov, ovTerms, k), oracleTopKSteinerOn(ov, ovTerms, k))
		}
	}
}

// TestTopKSteinerUnreachableTerminal: with a terminal outside the first
// one's component no tree exists; the search says so before popping
// anything, and the oracle, after exhausting the queue, agrees.
func TestTopKSteinerUnreachableTerminal(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		g, terms := plateauGraph(r, 12, 10, 2+trial%3)
		island := g.AddNode()
		g.AddEdge(island, g.AddNode(), 0.3)
		terms = append(terms, island)
		if trial%2 == 1 {
			terms[0], terms[len(terms)-1] = terms[len(terms)-1], terms[0]
		}
		for _, k := range []int{1, 5} {
			got, st := TopKSteinerStats(g, terms, k)
			if got != nil || st.Pops != 0 {
				t.Errorf("trial %d k %d: %v after %d pops, want nil at once", trial, k, got, st.Pops)
			}
			assertSameTrees(t, "unreachable", got, oracleTopKSteinerOn(g, terms, k))
		}
	}
}

// TestLowerBoundAdmissibleConsistent: on random plateau graphs, lower(v, m)
// never exceeds the cheapest tree joining v to the terminals outside m
// (admissible), and cost + lower never decreases from a recorded candidate
// to one derived from it, across an extension or a merge (consistent).
func TestLowerBoundAdmissibleConsistent(t *testing.T) {
	const eps = 1e-9
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 16; trial++ {
		g, terms := plateauGraph(r, 8+r.Intn(6), r.Intn(10), 2+r.Intn(3))
		slices.Sort(terms)
		s := acquireSearch()
		s.run(g, terms, 4)
		f := func(c *cand) float64 { return c.cost + s.lower(c.root, c.mask) }
		for i := range s.arena {
			c := &s.arena[i]
			if c.a < 0 {
				continue
			}
			if f(c) < f(&s.arena[c.a])-eps || c.b >= 0 && f(c) < f(&s.arena[c.b])-eps {
				t.Fatalf("trial %d: cost+lower falls from a parent to candidate %d: %+v", trial, i, *c)
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			for m := uint32(0); m < s.full; m++ {
				join := []NodeID{NodeID(v)}
				for i, term := range terms {
					if m&(1<<uint(i)) == 0 {
						join = append(join, term)
					}
				}
				best := oracleTopKSteinerOn(g, join, 1)
				if lb := s.lower(int32(v), m); len(best) == 0 || lb > best[0].Cost+eps {
					t.Fatalf("trial %d: lower(%d, %b) = %v above the cheapest completion %v", trial, v, m, lb, best)
				}
			}
		}
		releaseSearch(s)
	}
}

// TestTopKSteinerScratchDeterministic: once warm, what one search allocates
// is a function of its input and the searches before it — the same back to
// back, after the collector has run, and after concurrent searches of other
// sizes have cycled the free list. (With the scratch in the runtime's
// object pool the collector emptied it, and a call's bytes depended on which
// pooled search it got.) TotalAlloc is process-wide, so each check gets
// three attempts at an exact match: a stray allocation by another goroutine
// (the test runner's) cannot fail it, a scratch that is not retained can.
func TestTopKSteinerScratchDeterministic(t *testing.T) {
	g, terms := benchGraph()
	alloc := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sinkTrees = TopKSteinerOn(g, terms, 5)
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	alloc()
	want := alloc()
	check := func(what string, before func()) {
		t.Helper()
		var got []uint64
		for range 3 {
			before()
			if got = append(got, alloc()); got[len(got)-1] == want {
				return
			}
		}
		t.Errorf("%s: %v bytes, want %d", what, got, want)
	}
	check("back to back", func() {})
	check("after two collections", func() {
		runtime.GC()
		runtime.GC()
	})
	check("after concurrent searches of other sizes", func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(w)))
				gw, tw := plateauGraph(r, 20+60*w, 20+80*w, 2+w%3)
				for i := 0; i < 4; i++ {
					TopKSteinerOn(gw, tw, 1+w)
				}
			}()
		}
		wg.Wait()
	})
}

// benchGraph is the 400-node / 800-edge 2-terminal search of the allocation
// ceiling and the benchmark.
func benchGraph() (*Graph, []NodeID) {
	return plateauGraph(rand.New(rand.NewSource(400)), 400, 401, 2)
}

var sinkTrees []Tree

// TestTopKSteinerAllocs holds the search to its allocation ceiling: once
// the retained scratch is warm, a call allocates little beyond its answer
// (the pre-rewrite search made tens of thousands of allocations here).
func TestTopKSteinerAllocs(t *testing.T) {
	g, terms := benchGraph()
	if got := TopKSteinerOn(g, terms, 5); len(got) != 5 {
		t.Fatalf("got %d trees, want 5", len(got))
	}
	allocs := testing.AllocsPerRun(20, func() { sinkTrees = TopKSteinerOn(g, terms, 5) })
	if allocs > 64 {
		t.Errorf("%.0f allocations per search, want ≤ 64", allocs)
	}
}

func BenchmarkTopKSteiner(b *testing.B) {
	g, terms := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrees = TopKSteinerOn(g, terms, 5)
	}
}

func BenchmarkTopKSteinerOracle(b *testing.B) {
	g, terms := benchGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrees = oracleTopKSteinerOn(g, terms, 5)
	}
}
