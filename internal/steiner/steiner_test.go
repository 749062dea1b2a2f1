package steiner

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// lineGraph builds 0-1-2-...-(n-1) with unit edge costs.
func lineGraph(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a, b := g.AddNode(), g.AddNode()
	e := g.AddEdge(a, b, 2.5)
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Edge(e).Cost != 2.5 {
		t.Errorf("cost = %v", g.Edge(e).Cost)
	}
	g.SetCost(e, 1.5)
	if g.Edge(e).Cost != 1.5 {
		t.Errorf("after SetCost: %v", g.Edge(e).Cost)
	}
	if g.Other(e, a) != b || g.Other(e, b) != a {
		t.Error("Other broken")
	}
	if g.Degree(a) != 1 {
		t.Errorf("Degree = %d", g.Degree(a))
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph()
	g.AddNode()
	assertPanics(t, "out of range", func() { g.AddEdge(0, 5, 1) })
	assertPanics(t, "negative cost", func() { g.AddEdge(0, 0, -1) })
	e := g.AddEdge(0, 0, 1)
	assertPanics(t, "negative SetCost", func() { g.SetCost(e, -0.5) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	d := DijkstraOn(g, 0)
	for i := 0; i < 5; i++ {
		if d[i] != float64(i) {
			t.Errorf("dist[%d] = %v, want %d", i, d[i], i)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := NewGraph()
	g.AddNode()
	g.AddNode() // isolated
	d := DijkstraOn(g, 0)
	if !math.IsInf(d[1], 1) {
		t.Errorf("isolated node distance = %v, want +Inf", d[1])
	}
}

func TestDijkstraPrefersCheaperMultiEdge(t *testing.T) {
	g := NewGraph()
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 5)
	g.AddEdge(a, b, 1)
	d := DijkstraOn(g, a)
	if d[b] != 1 {
		t.Errorf("dist = %v, want 1", d[b])
	}
}

func TestTopKSteinerTwoTerminalsIsShortestPath(t *testing.T) {
	// Diamond: 0-1-3 (cost 1+1) and 0-2-3 (cost 2+2); direct 0-3 cost 5.
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 3, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(2, 3, 2)
	g.AddEdge(0, 3, 5)
	trees := TopKSteinerOn(g, []NodeID{0, 3}, 3)
	if len(trees) != 3 {
		t.Fatalf("got %d trees, want 3", len(trees))
	}
	wantCosts := []float64{2, 4, 5}
	for i, w := range wantCosts {
		if trees[i].Cost != w {
			t.Errorf("tree %d cost = %v, want %v", i, trees[i].Cost, w)
		}
	}
}

func TestTopKSteinerStar(t *testing.T) {
	// Star: hub 0 connects terminals 1,2,3. The only tree covering all three
	// terminals uses all three spokes, cost 6.
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.AddNode()
	}
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 2)
	g.AddEdge(0, 3, 3)
	trees := TopKSteinerOn(g, []NodeID{1, 2, 3}, 5)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	if trees[0].Cost != 6 {
		t.Errorf("cost = %v, want 6", trees[0].Cost)
	}
	if len(trees[0].Nodes) != 4 {
		t.Errorf("nodes = %v, want hub + 3 terminals", trees[0].Nodes)
	}
}

func TestTopKSteinerEdgeCases(t *testing.T) {
	g := lineGraph(3)
	if got := TopKSteinerOn(g, []NodeID{1}, 3); len(got) != 1 || got[0].Cost != 0 {
		t.Errorf("single terminal: %v", got)
	}
	if got := TopKSteinerOn(g, nil, 3); got != nil {
		t.Errorf("no terminals: %v", got)
	}
	if got := TopKSteinerOn(g, []NodeID{0, 2}, 0); got != nil {
		t.Errorf("k=0: %v", got)
	}
	// duplicate terminals collapse
	if got := TopKSteinerOn(g, []NodeID{1, 1}, 2); len(got) != 1 || got[0].Cost != 0 {
		t.Errorf("duplicate terminals: %v", got)
	}
	// disconnected terminals yield nothing
	g2 := NewGraph()
	g2.AddNode()
	g2.AddNode()
	if got := TopKSteinerOn(g2, []NodeID{0, 1}, 2); len(got) != 0 {
		t.Errorf("disconnected: %v", got)
	}
}

func TestTopKSteinerCostsNonDecreasing(t *testing.T) {
	g, terms := randomConnectedGraph(rand.New(rand.NewSource(7)), 20, 40, 3)
	trees := TopKSteinerOn(g, terms, 8)
	if len(trees) == 0 {
		t.Fatal("expected trees on a connected graph")
	}
	for i := 1; i < len(trees); i++ {
		if trees[i].Cost < trees[i-1].Cost-1e-9 {
			t.Errorf("costs decrease at %d: %v < %v", i, trees[i].Cost, trees[i-1].Cost)
		}
	}
	seen := make(map[string]struct{})
	for _, tr := range trees {
		if _, dup := seen[tr.Key()]; dup {
			t.Errorf("duplicate tree %s", tr.Key())
		}
		seen[tr.Key()] = struct{}{}
		assertValidTree(t, g, tr, terms)
	}
}

// assertValidTree checks connectivity, acyclicity and terminal coverage.
func assertValidTree(t *testing.T, g *Graph, tr Tree, terms []NodeID) {
	t.Helper()
	nodeSet := make(map[NodeID]struct{}, len(tr.Nodes))
	for _, n := range tr.Nodes {
		nodeSet[n] = struct{}{}
	}
	for _, term := range terms {
		if _, ok := nodeSet[term]; !ok {
			t.Errorf("tree %s misses terminal %d", tr.Key(), term)
		}
	}
	if len(tr.Edges) != len(tr.Nodes)-1 {
		t.Errorf("tree %s: |E|=%d |V|=%d violates tree property", tr.Key(), len(tr.Edges), len(tr.Nodes))
	}
	// connectivity via union-find
	parent := make(map[NodeID]NodeID, len(tr.Nodes))
	var find func(NodeID) NodeID
	find = func(x NodeID) NodeID {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, n := range tr.Nodes {
		parent[n] = n
	}
	for _, eid := range tr.Edges {
		e := g.Edge(eid)
		parent[find(e.U)] = find(e.V)
	}
	root := find(tr.Nodes[0])
	for _, n := range tr.Nodes[1:] {
		if find(n) != root {
			t.Errorf("tree %s disconnected at node %d", tr.Key(), n)
		}
	}
	// cost consistency
	sum := 0.0
	for _, eid := range tr.Edges {
		sum += g.Edge(eid).Cost
	}
	if math.Abs(sum-tr.Cost) > 1e-9 {
		t.Errorf("tree %s cost %v != edge sum %v", tr.Key(), tr.Cost, sum)
	}
}

// bruteForceSteiner finds the optimal Steiner cost by enumerating all edge
// subsets (tiny graphs only).
func bruteForceSteiner(g *Graph, terms []NodeID) float64 {
	best := math.Inf(1)
	m := g.NumEdges()
	for mask := 0; mask < 1<<uint(m); mask++ {
		cost := 0.0
		parent := make([]int, g.NumNodes())
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			if parent[x] != x {
				parent[x] = find(parent[x])
			}
			return parent[x]
		}
		for e := 0; e < m; e++ {
			if mask&(1<<uint(e)) != 0 {
				edge := g.Edge(EdgeID(e))
				cost += edge.Cost
				parent[find(int(edge.U))] = find(int(edge.V))
			}
		}
		if cost >= best {
			continue
		}
		r := find(int(terms[0]))
		ok := true
		for _, t := range terms[1:] {
			if find(int(t)) != r {
				ok = false
				break
			}
		}
		if ok {
			best = cost
		}
	}
	return best
}

func randomConnectedGraph(r *rand.Rand, n, extraEdges, numTerms int) (*Graph, []NodeID) {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode()
	}
	// spanning chain guarantees connectivity
	for i := 1; i < n; i++ {
		g.AddEdge(NodeID(r.Intn(i)), NodeID(i), 0.5+r.Float64()*2)
	}
	for i := 0; i < extraEdges; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(NodeID(u), NodeID(v), 0.5+r.Float64()*2)
		}
	}
	perm := r.Perm(n)
	terms := make([]NodeID, numTerms)
	for i := range terms {
		terms[i] = NodeID(perm[i])
	}
	return g, terms
}

func TestTopKSteinerMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g, terms := randomConnectedGraph(r, 6, 4, 2+r.Intn(2))
		want := bruteForceSteiner(g, terms)
		trees := TopKSteinerOn(g, terms, 1)
		if len(trees) == 0 {
			t.Fatalf("trial %d: no tree found, brute force found %v", trial, want)
		}
		if math.Abs(trees[0].Cost-want) > 1e-9 {
			t.Errorf("trial %d: DPBF best %v != brute force %v", trial, trees[0].Cost, want)
		}
	}
}

func TestTreeHasEdgeAndKey(t *testing.T) {
	tr := Tree{Edges: []EdgeID{1, 3, 5}, Nodes: []NodeID{0, 1, 2, 3}}
	if !tr.HasEdge(3) || tr.HasEdge(2) {
		t.Error("HasEdge broken")
	}
	edgeless := Tree{Nodes: []NodeID{7}}
	if edgeless.Key() != "n7" {
		t.Errorf("edgeless key = %q", edgeless.Key())
	}
	if tr.Key() != "1,3,5" {
		t.Errorf("key = %q", tr.Key())
	}
}

// HasEdge reports whether the tree uses the given edge.
func (t Tree) HasEdge(id EdgeID) bool {
	i := sort.Search(len(t.Edges), func(i int) bool { return t.Edges[i] >= id })
	return i < len(t.Edges) && t.Edges[i] == id
}

// Other returns the endpoint of edge e that is not v (for self-loops it
// returns v).
func (g *Graph) Other(id EdgeID, v NodeID) NodeID { return other(g.edges[id], v) }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }
