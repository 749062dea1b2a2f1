package steiner

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
)

// Tree is one group Steiner tree: a connected, acyclic edge set spanning all
// terminals. Cost is the sum of edge costs. Trees with no edges (a single
// terminal node that matches every keyword) have an empty Edges slice and a
// single node.
type Tree struct {
	Cost  float64
	Edges []EdgeID // sorted ascending
	Nodes []NodeID // sorted ascending
}

// Key returns a canonical identity for the tree (its sorted edge set, or the
// sole node for edgeless trees). Two trees with equal keys span the same
// subgraph regardless of the DP root they were discovered from.
func (t Tree) Key() string {
	if len(t.Edges) == 0 {
		return string(strconv.AppendInt([]byte{'n'}, int64(t.Nodes[0]), 10))
	}
	b := make([]byte, 0, 8*len(t.Edges))
	for i, e := range t.Edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(e), 10)
	}
	return string(b)
}

// HasEdge reports whether the tree uses the given edge.
func (t Tree) HasEdge(id EdgeID) bool {
	i := sort.Search(len(t.Edges), func(i int) bool { return t.Edges[i] >= id })
	return i < len(t.Edges) && t.Edges[i] == id
}

// maxDPBFPops bounds the priority-queue work of one TopKSteiner call, a
// safety valve against pathological inputs (the algorithm is exponential in
// the number of terminals, which Q keeps small — one per keyword). A search
// that stops here reports Stats.Truncated.
const maxDPBFPops = 2_000_000

// MaxExactTerminals is the largest number of distinct terminals the exact
// search accepts: its state space is nodes × 2^terminals. Callers holding
// more route to ApproxTopKSteinerOn; TopKSteinerOn panics above it.
const MaxExactTerminals = 20

// Stats describes the work of one exact top-k search.
type Stats struct {
	Pops        int  // candidates taken off the queue
	Pushes      int  // candidates put on the queue
	Recorded    int  // candidates kept in a state's k-best list
	Pruned      int  // candidates dropped at push because their state already held k trees
	BoundPruned int  // candidates dropped at push or pop because cost + lower bound exceeds the k-th complete tree queued
	Truncated   bool // the search stopped at maxDPBFPops; the answer may be short
}

// TopKSteiner returns up to k lowest-cost Steiner trees connecting all
// terminal nodes, in non-decreasing cost order, using the DPBF dynamic
// program (state = ⟨root, terminal subset⟩) extended with k-best lists per
// state. Trees are deduplicated by edge set. With ≤1 terminals it returns a
// single zero-cost tree. Duplicate terminals are collapsed.
//
// This is the "exact algorithm at small scales" of paper §2.2.
func (g *Graph) TopKSteiner(terminals []NodeID, k int) []Tree {
	return TopKSteinerOn(g, terminals, k)
}

// TopKSteinerOn is TopKSteiner over an arbitrary graph view (base graph or
// base∪overlay).
//
// The result is a pure function of (view, terminal set, k). Candidates
// leave the queue in a strict total order — cost, then edge count (of two
// trees at one cost the one with fewer joins ranks first), then a hash of
// the edge set, then root, then covered-terminal mask, then the sorted edge
// lists compared element by element — so which of several trees tied at a
// cost is returned, and in which position, depends on neither the queue's
// layout nor the order the terminals were given in.
func TopKSteinerOn(g GraphView, terminals []NodeID, k int) []Tree {
	trees, _ := TopKSteinerStats(g, terminals, k)
	return trees
}

// TopKSteinerStats is TopKSteinerOn that also reports the work it did.
func TopKSteinerStats(g GraphView, terminals []NodeID, k int) ([]Tree, Stats) {
	if k <= 0 {
		return nil, Stats{}
	}
	terms := slices.Clone(terminals)
	slices.Sort(terms)
	terms = slices.Compact(terms)
	switch {
	case len(terms) == 0:
		return nil, Stats{}
	case len(terms) == 1:
		return []Tree{{Cost: 0, Nodes: []NodeID{terms[0]}}}, Stats{}
	case len(terms) > MaxExactTerminals:
		// 2^t states explode; callers should use ApproxTopKSteiner.
		panic(fmt.Sprintf("steiner: TopKSteiner with %d terminals (MaxExactTerminals is %d); use ApproxTopKSteiner",
			len(terms), MaxExactTerminals))
	}
	s := acquireSearch()
	trees := s.run(g, terms, k)
	stats := s.stats
	releaseSearch(s)
	return trees, stats
}

// cand is one DP tree rooted at root covering terminal set mask, on the
// queue or — once recorded — in the arena. It does not hold its node or edge
// set: those are implied by how it was derived from recorded candidates
// (a leaf is a bare terminal; an extension is candidate a plus an edge,
// re-rooted across it; a merge is the union of a and b, both rooted at
// root), and are walked out of the arena when needed. Trees here are a dozen
// edges at most.
type cand struct {
	cost   float64
	hash   uint64 // commutative hash of the edge set: sum of edgeHash
	root   int32
	mask   uint32
	nEdges int32
	a, b   int32 // arena indexes; a < 0 for a leaf, b < 0 unless a merge
	ext    int32 // an extension: the index in exts of the edge it added
	next   int32 // arena only: the candidate recorded before this one at root
}

// edgeHash spreads an edge id over 64 bits (the splitmix64 finaliser), so
// that sums of distinct small edge sets practically never coincide. It is a
// bijection, so two extensions of one tree never share a hash.
func edgeHash(e EdgeID) uint64 {
	x := uint64(e) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// search is the scratch of one TopKSteinerStats call. Everything lives in
// flat slices that a later call reuses through the free list (scratch.go).
type search struct {
	k     int
	n     int // nodes in the view
	full  uint32
	stats Stats

	dist  []float64         // terminals × nodes: dist[i*n+v] is terminal i's distance to v
	dq    minHeap[nodeItem] // Dijkstra's queue
	arena []cand            // recorded candidates, in pop order
	pq    minHeap[cand]     // queued candidates
	exts  []int32           // per recorded incomplete tree: its extensions' edges in queue order, then -1
	head  []int32           // per node: the last candidate recorded at that root, -1 if none
	mark  []uint32          // per node: == stamp when the node is in the tree being expanded
	stamp uint32

	best  []complete // the ≤ k cheapest distinct complete trees queued, by ascending cost
	limit float64    // +Inf until best holds k trees, then the k-th cost plus slack

	sibs      []sibling
	stack     []int32
	ea, eb    []EdgeID
	treeNodes []NodeID
}

// complete identifies a queued complete tree by (edge count, hash).
type complete struct {
	cost   float64
	nEdges int32
	hash   uint64
}

// sibling is one extension of a recorded tree while its list is sorted.
type sibling struct {
	cost float64
	hash uint64
	edge int32
}

// less is the queue's strict total order. Two candidates it does not
// separate have the same cost, root, mask and edge set, and are
// interchangeable. Every candidate a pop pushes is greater than the one
// popped (costs are non-negative; an extension adds an edge, a merge adds
// edges or, with a bare terminal, mask bits), so pops are in ascending order.
func (s *search) less(a, b *cand) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.nEdges != b.nEdges {
		return a.nEdges < b.nEdges
	}
	if a.hash != b.hash {
		return a.hash < b.hash
	}
	if a.root != b.root {
		return a.root < b.root
	}
	if a.mask != b.mask {
		return a.mask < b.mask
	}
	return slices.Compare(s.sortedEdges(a, &s.ea), s.sortedEdges(b, &s.eb)) < 0
}

// cmpSiblings is less restricted to the extensions of one tree: they share
// edge count and mask, and their hashes differ (edgeHash is a bijection), so
// cost and hash decide.
func cmpSiblings(a, b sibling) int {
	if a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	return cmp.Compare(a.hash, b.hash)
}

// walk appends c's nodes to *nodes and c's edges to *edges, in no
// particular order; either may be nil. A node where two merged parts meet is
// listed once per part.
func (s *search) walk(c *cand, nodes *[]NodeID, edges *[]EdgeID) {
	st := s.stack[:0]
	for {
		switch {
		case c.b >= 0: // merge: both parts end at c.root
			st = appendPow2(st, c.b)
			c = &s.arena[c.a]
			continue
		case c.a >= 0: // extension
			if edges != nil {
				*edges = appendPow2(*edges, EdgeID(s.exts[c.ext]))
			}
			if nodes != nil {
				*nodes = appendPow2(*nodes, NodeID(c.root))
			}
			c = &s.arena[c.a]
			continue
		}
		if nodes != nil { // leaf
			*nodes = appendPow2(*nodes, NodeID(c.root))
		}
		if len(st) == 0 {
			break
		}
		c = &s.arena[st[len(st)-1]]
		st = st[:len(st)-1]
	}
	s.stack = st
}

// sortedEdges returns c's edge set, ascending, in buf's storage.
func (s *search) sortedEdges(c *cand, buf *[]EdgeID) []EdgeID {
	*buf = (*buf)[:0]
	s.walk(c, nil, buf)
	slices.Sort(*buf)
	return *buf
}

// reset prepares the scratch for one search and fills the distance table,
// one Dijkstra per terminal. It reports false when some terminal is
// unreachable from the first, so that no tree spans them all.
func (s *search) reset(g GraphView, terms []NodeID, k int) bool {
	n := g.NumNodes()
	s.k, s.n = k, n
	s.full = uint32(1)<<uint(len(terms)) - 1
	s.stats = Stats{}
	s.arena = s.arena[:0]
	s.pq.Reset()
	s.exts = s.exts[:0]
	s.best = s.best[:0]
	s.limit = math.Inf(1)
	s.head = grown(s.head, n)
	for i := range s.head {
		s.head[i] = -1
	}
	s.mark = grown(s.mark, n)
	clear(s.mark)
	s.stamp = 0
	s.dist = grown(s.dist, len(terms)*n)
	for i, t := range terms {
		row := s.dist[i*n : (i+1)*n]
		dijkstraInto(g, t, row, nil, &s.dq)
		if i > 0 {
			continue
		}
		for _, u := range terms[1:] {
			if math.IsInf(row[u], 1) {
				return false
			}
		}
	}
	return true
}

func (s *search) run(g GraphView, terms []NodeID, k int) []Tree {
	if !s.reset(g, terms, k) {
		return nil
	}
	for i, t := range terms {
		s.push(cand{root: int32(t), mask: 1 << uint(i), a: -1, b: -1})
	}

	var answers []Tree
	for s.pq.Len() > 0 && len(answers) < k {
		if s.stats.Pops >= maxDPBFPops {
			s.stats.Truncated = true
			break
		}
		cur := s.pq.Pop()
		s.stats.Pops++
		if cur.a >= 0 && cur.b < 0 {
			// An extension. Its next sibling is no less than it, so it is
			// queued only now, admitted or not, and pops where it would
			// have anyway.
			s.queueExtension(g, cur.a, cur.ext+1)
		}
		if s.beyondLimit(&cur) {
			s.stats.BoundPruned++
			continue
		}
		if !s.admits(&cur) {
			continue
		}
		cur.next = s.head[cur.root]
		ci := int32(len(s.arena))
		s.arena = appendPow2(s.arena, cur)
		s.head[cur.root] = ci
		s.stats.Recorded++

		if cur.mask == s.full {
			// A complete tree takes part in nothing further.
			answers = s.answer(&cur, answers)
			continue
		}

		// Mark the tree's nodes for the cycle checks below.
		s.stamp++
		s.treeNodes = s.treeNodes[:0]
		s.walk(&cur, &s.treeNodes, nil)
		for _, v := range s.treeNodes {
			s.mark[v] = s.stamp
		}

		// Grow: list the extensions across one incident edge of the root in
		// queue order, and queue the first.
		s.sibs = s.sibs[:0]
		for _, eid := range g.Incident(NodeID(cur.root)) {
			e := g.Edge(eid)
			u := e.U
			if u == NodeID(cur.root) {
				u = e.V
			}
			if s.mark[u] == s.stamp {
				continue // would create a cycle
			}
			s.sibs = appendPow2(s.sibs, sibling{cur.cost + e.Cost, cur.hash + edgeHash(eid), int32(eid)})
		}
		if len(s.sibs) > 0 {
			slices.SortFunc(s.sibs, cmpSiblings)
			first := int32(len(s.exts))
			for _, sb := range s.sibs {
				s.exts = appendPow2(s.exts, sb.edge)
			}
			s.exts = appendPow2(s.exts, -1)
			s.queueExtension(g, ci, first)
		}

		// Merge: combine with recorded trees rooted at the same node whose
		// terminal sets are disjoint and whose node sets share only the root.
		for oi := cur.next; oi >= 0; oi = s.arena[oi].next {
			o := &s.arena[oi]
			if o.mask&cur.mask != 0 || s.overlaps(o, cur.root) {
				continue
			}
			s.push(cand{
				cost:   cur.cost + o.cost,
				hash:   cur.hash + o.hash,
				root:   cur.root,
				mask:   cur.mask | o.mask,
				nEdges: cur.nEdges + o.nEdges,
				a:      ci,
				b:      oi,
			})
		}
	}
	return answers
}

// queueExtension queues the first extension of recorded tree p at or after
// position i of its list that push keeps. Drops are final (states only
// fill, the limit only falls), so skipping to the next is what the drop of
// an eagerly queued extension would have amounted to.
func (s *search) queueExtension(g GraphView, p, i int32) {
	pc := &s.arena[p]
	for ; s.exts[i] >= 0; i++ {
		eid := EdgeID(s.exts[i])
		e := g.Edge(eid)
		u := e.U
		if u == NodeID(pc.root) {
			u = e.V
		}
		if s.push(cand{
			cost:   pc.cost + e.Cost,
			hash:   pc.hash + edgeHash(eid),
			root:   int32(u),
			mask:   pc.mask,
			nEdges: pc.nEdges + 1,
			a:      p,
			b:      -1,
			ext:    i,
		}) {
			return
		}
	}
}

// push queues c and reports whether it did. It drops c when no complete
// tree derived from it could rank among the answers (beyondLimit), or when
// its state already holds k trees: pops ascend, so everything queued from
// now on pops after them and c could never be recorded. Neither drop
// changes what any other candidate does.
func (s *search) push(c cand) bool {
	if s.beyondLimit(&c) {
		s.stats.BoundPruned++
		return false
	}
	if s.stateFull(c.root, c.mask) {
		s.stats.Pruned++
		return false
	}
	s.pq.Push(c)
	s.stats.Pushes++
	if c.mask == s.full {
		s.noteComplete(&c)
	}
	return true
}

// lower is a lower bound on what completing a tree rooted at root that
// covers mask still costs: the farthest terminal outside mask. It is
// consistent — an extension across an edge of cost w lowers it by at most w,
// and a merge partner costs at least its own terminals' distances — so
// cost + lower never decreases from a candidate to one derived from it.
func (s *search) lower(root int32, mask uint32) float64 {
	lb := 0.0
	for rest := s.full &^ mask; rest != 0; rest &= rest - 1 {
		lb = max(lb, s.dist[bits.TrailingZeros32(rest)*s.n+int(root)])
	}
	return lb
}

// beyondLimit reports whether every complete tree derived from c costs more
// than the k-th cheapest distinct complete tree already queued. Those k pop
// first, so c and everything after it in its state are dead: no answer
// derives from them and the search stops before they would pop.
func (s *search) beyondLimit(c *cand) bool {
	return !math.IsInf(s.limit, 1) && c.cost+s.lower(c.root, c.mask) > s.limit
}

// noteComplete counts a queued complete tree among the k cheapest distinct
// ones and, once there are k, sets the limit to the k-th cost with a
// relative slack that covers the float sums' evaluation order.
func (s *search) noteComplete(c *cand) {
	i := len(s.best) - 1
	for ; i >= 0 && (s.best[i].nEdges != c.nEdges || s.best[i].hash != c.hash); i-- {
	}
	switch {
	case i >= 0:
		if c.cost >= s.best[i].cost {
			return
		}
		s.best[i].cost = c.cost
	case len(s.best) < s.k:
		i = len(s.best)
		s.best = appendPow2(s.best, complete{c.cost, c.nEdges, c.hash})
	case c.cost < s.best[len(s.best)-1].cost:
		i = len(s.best) - 1
		s.best[i] = complete{c.cost, c.nEdges, c.hash}
	default:
		return
	}
	for ; i > 0 && s.best[i].cost < s.best[i-1].cost; i-- {
		s.best[i], s.best[i-1] = s.best[i-1], s.best[i]
	}
	if len(s.best) == s.k {
		s.limit = s.best[s.k-1].cost*(1+1e-9) + 1e-12
	}
}

func (s *search) stateFull(root int32, mask uint32) bool {
	n := 0
	for i := s.head[root]; i >= 0; i = s.arena[i].next {
		if s.arena[i].mask == mask {
			n++
		}
	}
	return n >= s.k
}

// admits reports whether a popped candidate enters its state's k-best list:
// the list has room and does not already hold the same edge set (reached
// earlier through another derivation).
func (s *search) admits(c *cand) bool {
	n := 0
	for i := s.head[c.root]; i >= 0; i = s.arena[i].next {
		r := &s.arena[i]
		if r.mask != c.mask {
			continue
		}
		if n++; n >= s.k {
			return false
		}
		if r.nEdges == c.nEdges && r.hash == c.hash {
			if slices.Equal(s.sortedEdges(r, &s.ea), s.sortedEdges(c, &s.eb)) {
				return false
			}
		}
	}
	return true
}

// overlaps reports whether recorded tree o shares a node other than root
// with the marked tree, in which case their union is not a tree.
func (s *search) overlaps(o *cand, root int32) bool {
	s.treeNodes = s.treeNodes[:0]
	s.walk(o, &s.treeNodes, nil)
	for _, v := range s.treeNodes {
		if v != NodeID(root) && s.mark[v] == s.stamp {
			return true
		}
	}
	return false
}

// answer materialises a recorded complete tree and appends it, unless the
// same edge set was already returned from another root.
func (s *search) answer(c *cand, answers []Tree) []Tree {
	edges := s.sortedEdges(c, &s.ea)
	for _, a := range answers {
		if slices.Equal(a.Edges, edges) {
			return answers
		}
	}
	s.treeNodes = s.treeNodes[:0]
	s.walk(c, &s.treeNodes, nil)
	slices.Sort(s.treeNodes)
	return append(answers, Tree{
		Cost:  c.cost,
		Edges: slices.Clone(edges),
		Nodes: slices.Clone(slices.Compact(s.treeNodes)),
	})
}
