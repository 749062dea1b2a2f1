package steiner

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// edgeSetHash is the commutative edge-set hash of a whole edge list.
func edgeSetHash(edges []EdgeID) uint64 {
	var h uint64
	for _, e := range edges {
		h += edgeHash(e)
	}
	return h
}

// oracleTopKSteinerOn is the k-best-per-state DPBF exactly as it stood
// before the arena rewrite — map-cloned node sets, sorted edge slices,
// string dedup keys, container/heap — kept as the reference the differential
// and fuzz tests compare TopKSteinerOn against. Only dpPQ.Less differs from
// the original: it is the documented total order (see candLess) instead of
// bare cost, so the oracle's answer, like the search's, no longer depends on
// heap layout.
func oracleTopKSteinerOn(g GraphView, terminals []NodeID, k int) []Tree {
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
	if len(terms) > 20 {
		// 2^t states explode; callers should use ApproxTopKSteiner.
		panic(fmt.Sprintf("steiner: TopKSteiner with %d terminals; use ApproxTopKSteiner", len(terms)))
	}
	full := uint32(1)<<uint(len(terms)) - 1

	type state struct {
		v    NodeID
		mask uint32
	}
	// Recorded k-best trees per state, with canonical-key dedup.
	recorded := make(map[state][]*dpTree)
	seen := make(map[state]map[string]struct{})

	pq := &dpPQ{}
	for i, t := range terms {
		dt := &dpTree{cost: 0, v: t, mask: 1 << uint(i), nodes: map[NodeID]struct{}{t: {}}}
		heap.Push(pq, dt)
	}

	var answers []Tree
	answerKeys := make(map[string]struct{})
	pops := 0

	for pq.Len() > 0 && len(answers) < k && pops < maxDPBFPops {
		cur := heap.Pop(pq).(*dpTree)
		pops++
		st := state{v: cur.v, mask: cur.mask}
		key := cur.key()
		if seen[st] == nil {
			seen[st] = make(map[string]struct{})
		}
		if _, dup := seen[st][key]; dup {
			continue
		}
		if len(recorded[st]) >= k {
			continue
		}
		seen[st][key] = struct{}{}
		recorded[st] = append(recorded[st], cur)

		if cur.mask == full {
			t := cur.toTree()
			if _, dup := answerKeys[t.Key()]; !dup {
				answerKeys[t.Key()] = struct{}{}
				answers = append(answers, t)
			}
			// A full-mask tree still participates in nothing further.
			continue
		}

		// Grow: extend the tree across one incident edge of its root.
		for _, eid := range g.Incident(cur.v) {
			u := g.Other(eid, cur.v)
			if _, inTree := cur.nodes[u]; inTree {
				continue // would create a cycle
			}
			nt := cur.extend(g, eid, u)
			heap.Push(pq, nt)
		}

		// Merge: combine with recorded trees rooted at the same node whose
		// terminal sets are disjoint and whose node sets share only the root.
		for otherMask := uint32(1); otherMask <= full; otherMask++ {
			if otherMask&cur.mask != 0 {
				continue
			}
			for _, other := range recorded[state{v: cur.v, mask: otherMask}] {
				if mt, ok := cur.merge(other); ok {
					heap.Push(pq, mt)
				}
			}
		}
	}
	return answers
}

// dpTree is an intermediate DP tree rooted at v covering terminal set mask.
type dpTree struct {
	cost  float64
	v     NodeID
	mask  uint32
	edges []EdgeID // sorted
	nodes map[NodeID]struct{}
}

func (t *dpTree) key() string {
	if len(t.edges) == 0 {
		return fmt.Sprintf("n%d", t.v)
	}
	parts := make([]string, len(t.edges))
	for i, e := range t.edges {
		parts[i] = fmt.Sprint(e)
	}
	return strings.Join(parts, ",")
}

func (t *dpTree) extend(g GraphView, eid EdgeID, newRoot NodeID) *dpTree {
	nt := &dpTree{
		cost:  t.cost + g.Edge(eid).Cost,
		v:     newRoot,
		mask:  t.mask,
		edges: insertSorted(t.edges, eid),
		nodes: make(map[NodeID]struct{}, len(t.nodes)+1),
	}
	for n := range t.nodes {
		nt.nodes[n] = struct{}{}
	}
	nt.nodes[newRoot] = struct{}{}
	return nt
}

// merge unions two same-rooted trees. It fails (ok=false) when the node sets
// overlap anywhere besides the shared root, which would introduce a cycle or
// double-count cost.
func (t *dpTree) merge(o *dpTree) (*dpTree, bool) {
	small, large := t, o
	if len(small.nodes) > len(large.nodes) {
		small, large = large, small
	}
	for n := range small.nodes {
		if n == t.v {
			continue
		}
		if _, shared := large.nodes[n]; shared {
			return nil, false
		}
	}
	nt := &dpTree{
		cost:  t.cost + o.cost,
		v:     t.v,
		mask:  t.mask | o.mask,
		edges: mergeSorted(t.edges, o.edges),
		nodes: make(map[NodeID]struct{}, len(t.nodes)+len(o.nodes)),
	}
	for n := range t.nodes {
		nt.nodes[n] = struct{}{}
	}
	for n := range o.nodes {
		nt.nodes[n] = struct{}{}
	}
	return nt, true
}

func (t *dpTree) toTree() Tree {
	out := Tree{Cost: t.cost, Edges: make([]EdgeID, len(t.edges)), Nodes: make([]NodeID, 0, len(t.nodes))}
	copy(out.Edges, t.edges)
	for n := range t.nodes {
		out.Nodes = append(out.Nodes, n)
	}
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i] < out.Nodes[j] })
	return out
}

func insertSorted(s []EdgeID, e EdgeID) []EdgeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	out := make([]EdgeID, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, e)
	out = append(out, s[i:]...)
	return out
}

func mergeSorted(a, b []EdgeID) []EdgeID {
	out := make([]EdgeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

type dpPQ []*dpTree

func (p dpPQ) Len() int { return len(p) }
func (p dpPQ) Less(i, j int) bool {
	a, b := p[i], p[j]
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if len(a.edges) != len(b.edges) {
		return len(a.edges) < len(b.edges)
	}
	if ha, hb := edgeSetHash(a.edges), edgeSetHash(b.edges); ha != hb {
		return ha < hb
	}
	if a.v != b.v {
		return a.v < b.v
	}
	if a.mask != b.mask {
		return a.mask < b.mask
	}
	return slices.Compare(a.edges, b.edges) < 0
}
func (p dpPQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *dpPQ) Push(x interface{}) { *p = append(*p, x.(*dpTree)) }
func (p *dpPQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}
