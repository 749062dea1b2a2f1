package steiner

import (
	"math"
	"slices"
	"sort"
)

// ApproxTopKSteinerOn returns up to k low-cost Steiner trees of a graph view
// (base graph or base∪overlay) using a
// BANKS-style approximation: shortest paths are computed from every
// terminal, each graph node is considered as a potential "root", and the
// candidate tree rooted at r is the union of the shortest paths from r to
// each terminal. Candidates are ranked by the cost of their (deduplicated)
// edge union and the k best distinct trees are returned.
//
// The approximation guarantee is the classical shortest-path-heuristic
// factor (≤ number of terminals); in practice on Q's search graphs it finds
// the optimum for most queries. This is the "approximation algorithm at
// larger scales" of paper §2.2.
func ApproxTopKSteinerOn(g GraphView, terminals []NodeID, k int) []Tree {
	if k <= 0 {
		return nil
	}
	terms := dedupNodes(terminals)
	if len(terms) == 0 {
		return nil
	}
	if len(terms) == 1 {
		return []Tree{{Cost: 0, Nodes: []NodeID{terms[0]}}}
	}

	dists := make([]Dist, len(terms))
	s := acquireSearch()
	s.build(g)
	for i, t := range terms {
		dists[i] = s.shortestPaths(t)
	}
	releaseSearch(s)

	type cand struct {
		root  NodeID
		bound float64 // sum of path costs; ≥ true union cost
	}
	var cands []cand
	for v := range len(dists[0].D) {
		total := 0.0
		reachable := true
		for i := range terms {
			d := dists[i].D[v]
			if math.IsInf(d, 1) {
				reachable = false
				break
			}
			total += d
		}
		if reachable {
			cands = append(cands, cand{root: NodeID(v), bound: total})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound < cands[j].bound
		}
		return cands[i].root < cands[j].root
	})

	// Materialise candidate trees best-bound-first; keep k distinct.
	var out []Tree
	seen := make(map[string]struct{})
	// Examine more candidates than k since several roots can yield the same
	// tree; 4k+16 is a pragmatic cut-off.
	limit := 4*k + 16
	for i, c := range cands {
		if i >= limit && len(out) >= k {
			break
		}
		t, ok := unionPathsTree(g, dists, terms, c.root)
		if !ok {
			continue
		}
		if _, dup := seen[t.Key()]; dup {
			continue
		}
		seen[t.Key()] = struct{}{}
		out = append(out, t)
		if len(out) >= limit {
			break
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// unionPathsTree builds the union of shortest paths from root to each
// terminal and verifies it is a tree (the union can contain a cycle when
// paths from different terminals interleave; such candidates are dropped).
func unionPathsTree(g GraphView, dists []Dist, terms []NodeID, root NodeID) (Tree, bool) {
	edgeSet := make(map[EdgeID]struct{})
	nodeSet := map[NodeID]struct{}{root: {}}
	for i := range terms {
		v := root
		for dists[i].Prev[v] != -1 {
			eid := dists[i].Prev[v]
			edgeSet[eid] = struct{}{}
			v = other(g.Edge(eid), v)
			nodeSet[v] = struct{}{}
		}
	}
	if len(edgeSet) != len(nodeSet)-1 {
		return Tree{}, false // cycle in the union
	}
	t := Tree{Edges: make([]EdgeID, 0, len(edgeSet)), Nodes: make([]NodeID, 0, len(nodeSet))}
	for e := range edgeSet {
		t.Edges = append(t.Edges, e)
	}
	for n := range nodeSet {
		t.Nodes = append(t.Nodes, n)
	}
	slices.Sort(t.Edges)
	slices.Sort(t.Nodes)
	// Summed in edge-id order, not map order: float addition is not
	// associative, and the cost decides the trees' rank.
	for _, e := range t.Edges {
		t.Cost += g.Edge(e).Cost
	}
	return t, true
}

func dedupNodes(nodes []NodeID) []NodeID {
	seen := make(map[NodeID]struct{}, len(nodes))
	var out []NodeID
	for _, n := range nodes {
		if _, ok := seen[n]; ok {
			continue
		}
		seen[n] = struct{}{}
		out = append(out, n)
	}
	return out
}
