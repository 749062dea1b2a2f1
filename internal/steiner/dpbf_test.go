package steiner

import (
	"encoding/binary"
	"hash/fnv"
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

// differentialInputs builds one differential case: a graph with its
// terminals, and an overlay re-expression of it with its own.
func differentialInputs(seed int64, plateau bool, n, extra, numTerms int) (*Graph, []NodeID, *Overlay, []NodeID) {
	r := rand.New(rand.NewSource(seed))
	gen := randomConnectedGraph
	if plateau {
		gen = plateauGraph
	}
	g, terms := gen(r, n, extra, numTerms)
	ov, ovTerms := overlayOf(r, g, terms)
	return g, terms, ov, ovTerms
}

// checkAgainstOracle runs one differential case: over the graph itself and
// over an overlay re-expression of it.
func checkAgainstOracle(t *testing.T, seed int64, plateau bool, n, extra, numTerms, k int) {
	t.Helper()
	g, terms, ov, ovTerms := differentialInputs(seed, plateau, n, extra, numTerms)
	assertSameTrees(t, "graph", TopKSteinerOn(g, terms, k), oracleTopKSteinerOn(g, terms, k))
	assertSameTrees(t, "overlay", TopKSteinerOn(ov, ovTerms, k), oracleTopKSteinerOn(ov, ovTerms, k))
}

// goldenWork is the digest of the work counters of every differentialCases
// search, on the graph and on the overlay, as the bound-pruned search with
// lazy extensions counted them.
const goldenWork = 0xc829ac4003cf19d8

// TestTopKSteinerGoldenWork: the search takes the same steps as it did when
// goldenWork was recorded — the same pops, pushes, records and drops of
// each kind. Oracle equivalence sees only the answers; a kernel that pops a
// candidate more or fewer, or prunes one at another point, changes this
// digest.
func TestTopKSteinerGoldenWork(t *testing.T) {
	h := fnv.New64a()
	fold := func(st Stats) {
		var b []byte
		for _, x := range []int{st.Pops, st.Pushes, st.Recorded, st.Pruned, st.BoundPruned} {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		if st.Truncated {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		h.Write(b)
	}
	differentialCases(func(seed int64, plateau bool, n, extra, numTerms, k int) {
		g, terms, ov, ovTerms := differentialInputs(seed, plateau, n, extra, numTerms)
		_, st := TopKSteinerStats(g, terms, k, math.Inf(1))
		fold(st)
		_, st = TopKSteinerStats(ov, ovTerms, k, math.Inf(1))
		fold(st)
	})
	if got := h.Sum64(); got != goldenWork {
		t.Errorf("work digest %#x, want %#x", got, uint64(goldenWork))
	}
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
	trees, st := TopKSteinerStats(g, terms, 5, math.Inf(1))
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
			got, st := TopKSteinerStats(g, terms, k, math.Inf(1))
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
			got, st := TopKSteinerStats(g, terms, k, math.Inf(1))
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
		s.run(g, terms, 4, math.Inf(1))
		fillWholeTable(s)
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

// FuzzSiblingOrder: listExtensions lists the arcs of a node in the order
// slices.SortFunc(_, cmpSiblings) gives the extensions of a tree of the
// given cost and hash rooted there. Each byte of data is one arc: its low
// three bits pick the arc's cost, bit 3 marks the arc's far end as in the
// tree (the arc would close a cycle and is dropped), and the high nibble
// perturbs its edge id. The seeds cover an empty and a one-arc list,
// one-cost runs with a tree hash of 0 and across the hash wrap, runs whose
// sums collide across arc costs (a tree cost of 1e16 absorbs 0.5 and 1),
// and drops in the middle of a run.
func FuzzSiblingOrder(f *testing.F) {
	f.Add([]byte{}, 0.0, uint64(0))
	f.Add([]byte{0x12}, 0.3, uint64(1)<<63)
	f.Add([]byte{0x11, 0x21, 0x31, 0x41, 0x51}, 0.0, uint64(0))
	f.Add([]byte{0x11, 0x21, 0x31, 0x41, 0x51, 0x61, 0x71}, 1.5, uint64(0x9000000000000000))
	f.Add([]byte{0x11, 0x22, 0x31, 0x42, 0x50, 0x63}, 1e16, uint64(12345))
	f.Add([]byte{0x12, 0x2a, 0x32, 0x4a, 0x52, 0x1b}, 0.3, ^uint64(0)>>1)
	levels := []float64{0, 0.5, 1, 1.5, 3}
	f.Fuzz(func(t *testing.T, data []byte, cost float64, hash uint64) {
		if !(cost >= 0) {
			cost = 0 // trees cost a non-negative amount
		}
		s := &search{
			base:  &CSR{off: []int32{0, int32(len(data))}},
			span:  [][2]int32{{-1, -1}},
			mark:  make([]uint32, len(data)+2),
			stamp: 1,
		}
		s.mark[1] = s.stamp
		var want []sibling
		for i, b := range data {
			a := arc{to: int32(2 + i), edge: int32(16*i + int(b>>4)), cost: levels[int(b&7)%len(levels)]}
			if b&8 != 0 {
				a.to = 1
			} else {
				want = append(want, sibling{cost + a.cost, hash + edgeHash(EdgeID(a.edge)), a.edge})
			}
			s.base.arcs = append(s.base.arcs, a)
		}
		slices.SortFunc(s.base.arcs, cmpArcs) // as Freeze lays them out
		slices.SortFunc(want, cmpSiblings)
		var got []int32
		if first := s.listExtensions(0, cost, hash); first >= 0 {
			for _, a := range s.exts[first:] {
				if a < 0 {
					break
				}
				got = append(got, s.arc(a).edge)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d extensions listed, want %d", len(got), len(want))
		}
		for i, sb := range want {
			if got[i] != sb.arc {
				t.Fatalf("extension %d is edge %d, want %d (listed %v)", i, got[i], sb.arc, got)
			}
		}
	})
}

// fillWholeTable fills s's distance table at radius +Inf: every terminal's
// row from its source, so that lower reads exact distances everywhere.
func fillWholeTable(s *search) {
	for i, t := range s.terms {
		row := s.dist[i*s.n : (i+1)*s.n]
		s.startDijkstra(t, row)
		s.dijkstra(row, math.Inf(1), 0)
	}
}

// TestDistancesExactWithinRadius: a distance table filled as far as a
// radius — terminal 0's row resumed from where reset stopped it, as the
// first limit does — holds the full table's distance, bit for bit, at
// every node within the radius, and a value above the radius everywhere
// else. The radii are distances that occur, on plateau graphs with
// zero-cost edges, so nodes sit exactly at the radius behind other nodes at
// the radius.
func TestDistancesExactWithinRadius(t *testing.T) {
	r := rand.New(rand.NewSource(606))
	for trial := 0; trial < 40; trial++ {
		g, terms := plateauGraph(r, 10+r.Intn(30), r.Intn(40), 2+r.Intn(3))
		slices.Sort(terms)
		var want [][]float64
		var radii []float64
		for _, term := range terms {
			d := DijkstraOn(g, term)
			want = append(want, d)
			radii = append(radii, d[r.Intn(len(d))], d[terms[0]])
		}
		for _, radius := range radii {
			s := acquireSearch()
			if !s.reset(g, terms, 3, math.Inf(1)) {
				t.Fatalf("trial %d: terminals of a connected graph unreachable", trial)
			}
			s.fillDistances(radius)
			for i := range terms {
				for v, exact := range want[i] {
					got := s.dist[i*s.n+v]
					if exact <= radius && math.Float64bits(got) != math.Float64bits(exact) ||
						exact > radius && !(got > radius) {
						t.Fatalf("trial %d radius %v: terminal %d, node %d holds %v, distance %v", trial, radius, i, v, got, exact)
					}
				}
			}
			releaseSearch(s)
		}
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
