package steiner

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// maxDPBFPops bounds the priority-queue work of one TopKSteiner call, a
// safety valve against pathological inputs (the algorithm is exponential in
// the number of terminals, which Q keeps small — one per keyword). A search
// that stops here reports Stats.Truncated.
const maxDPBFPops = 2_000_000

// MaxExactTerminals is the largest number of distinct terminals the exact
// search accepts: its state space is nodes × 2^terminals. TopKSteinerOn
// panics above it, so callers refuse larger terminal sets first.
const MaxExactTerminals = 20

// Stats describes the work of one exact top-k search.
type Stats struct {
	Pops        int  // candidates taken off the queue
	Pushes      int  // candidates put on the queue
	Recorded    int  // candidates kept in a state's k-best list
	Pruned      int  // candidates dropped at push because their state already held k trees
	BoundPruned int  // candidates dropped at push or pop because cost + lower bound exceeds the limit
	Truncated   bool // the search stopped at maxDPBFPops; the answer may be short
	Reran       bool // TopKSteinerStats: a run under a finite limit came back short, so the search ran again without one
}

// plus returns the work of two runs together; Truncated and Reran are t's.
func (st Stats) plus(t Stats) Stats {
	t.Pops += st.Pops
	t.Pushes += st.Pushes
	t.Recorded += st.Recorded
	t.Pruned += st.Pruned
	t.BoundPruned += st.BoundPruned
	return t
}

// TopKSteinerOn returns up to k lowest-cost Steiner trees connecting all
// terminal nodes of a graph view (base graph or base∪overlay), in
// non-decreasing cost order, using the DPBF dynamic program (state = ⟨root,
// terminal subset⟩) extended with k-best lists per state. Trees are
// deduplicated by edge set. With ≤1 terminals it returns a single zero-cost
// tree. Duplicate terminals are collapsed.
//
// This is the "exact algorithm at small scales" of paper §2.2.
//
// The result is a pure function of (view, terminal set, k). Candidates
// leave the queue in a strict total order — cost, then edge count (of two
// trees at one cost the one with fewer joins ranks first), then a hash of
// the edge set, then root, then covered-terminal mask, then the sorted edge
// lists compared element by element — so which of several trees tied at a
// cost is returned, and in which position, depends on neither the queue's
// layout nor the order the terminals were given in.
func TopKSteinerOn(g GraphView, terminals []NodeID, k int) []Tree {
	trees, _ := TopKSteinerStats(g, terminals, k, math.Inf(1))
	return trees
}

// TopKSteinerStats is TopKSteinerOn that also reports the work it did, and
// that takes limit, a performance hint: a cost that the caller expects k
// distinct trees of the view to fit under (a view refresh passes its
// previous answer re-priced), or math.Inf(1) for none. The answer does not
// depend on it: it is TopKSteinerUnder's run, and when that run comes back
// with fewer than k trees under a finite limit, a second run without one
// (Stats.Reran; the Stats then add up both runs).
func TopKSteinerStats(g GraphView, terminals []NodeID, k int, limit float64) ([]Tree, Stats) {
	return topK(g, terminals, k, limit, true)
}

// TopKSteinerUnder is one run of the search under limit, never repeated:
// it returns the prefix of TopKSteinerOn's answer whose costs fit under
// limit, widened by the slack the search adds to any limit (a relative
// 1e-9 plus 1e-12). A short answer is therefore every tree under the
// limit, not a miss; math.Inf(1) gives the unlimited answer.
//
// The search starts with its limit at limit plus that slack, fills the
// distance table as far as that, and from then on only lowers it, exactly
// as it lowers a limit of its own. Within a DP state the limit cuts off a
// suffix of the cost order (pops ascend and cost + lower is the same bound
// for the whole state), every candidate derived from a pruned one is
// pruned too (cost + lower never falls along a derivation), so the
// candidates that survive are recorded, dropped and combined as in the
// unlimited run, and an answer of the unlimited run under the limit has
// every step of its derivation under it.
//
// One case is not covered: a search that the unlimited run would stop at
// maxDPBFPops can complete under a limit, because the limited run makes a
// subset of its pops; such an answer is the longer one.
func TopKSteinerUnder(g GraphView, terminals []NodeID, k int, limit float64) ([]Tree, Stats) {
	return topK(g, terminals, k, limit, false)
}

// topK is TopKSteinerUnder, followed, when rerun is set, by
// TopKSteinerStats' second run on the same scratch. Zero or one distinct
// terminal needs no search, so it never runs again.
func topK(g GraphView, terminals []NodeID, k int, limit float64, rerun bool) ([]Tree, Stats) {
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
		panic(fmt.Sprintf("steiner: TopKSteiner with %d terminals (MaxExactTerminals is %d)",
			len(terms), MaxExactTerminals))
	}
	s := acquireSearch()
	trees := s.run(g, terms, k, limit)
	stats := s.stats
	if rerun && len(trees) < k && !math.IsInf(limit, 1) {
		trees = s.run(g, terms, k, math.Inf(1))
		stats = stats.plus(s.stats)
		stats.Reran = true
	}
	releaseSearch(s)
	return trees, stats
}

// cand is one DP tree rooted at root covering terminal set mask, in the
// candidate pool while queued or — once recorded — in the arena. It does
// not hold its node or edge set: those are implied by how it was derived
// from recorded candidates (a leaf is a bare terminal; an extension is
// candidate a plus an arc, re-rooted across it; a merge is the union of a
// and b, both rooted at root), and are walked out of the arena when needed.
// Trees here are a dozen edges at most.
type cand struct {
	cost   float64
	hash   uint64 // commutative hash of the edge set: sum of edgeHash
	root   int32
	mask   uint32
	nEdges int32
	a, b   int32 // arena indexes; a < 0 for a leaf, b < 0 unless a merge
	ext    int32 // an extension: the index in exts of the arc it added
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

// search is the scratch of one topK call (and of the
// package's other Dijkstra runs). Everything lives in flat slices that a
// later call reuses through the free list (scratch.go).
type search struct {
	k     int
	n     int // nodes in the view
	terms []NodeID
	full  uint32
	stats Stats

	base  *CSR       // the view's base, read in place
	span  [][2]int32 // per node: where its arcs are in delta, or -1s when they are base's
	delta []arc      // the overlay nodes' arcs, and the touched base nodes' CSR and overlay arcs
	dist  []float64  // terminals × nodes: dist[i*n+v] is terminal i's distance to v, as far as filled
	dq    minHeap    // Dijkstra's queue; between reset and the first limit, terminal 0's
	arena []cand     // recorded candidates, in pop order
	pool  []cand     // queued candidates, addressed by the queue's items
	slots []int32    // free slots of pool
	pq    minHeap    // queued candidates: cost and pool slot
	exts  []int32    // per recorded incomplete tree: its extensions' arc numbers in queue order, then -1
	head  []int32    // per node: the last candidate recorded at that root, -1 if none
	mark  []uint32   // per node: == stamp when the node is in the tree being expanded
	stamp uint32

	best  []complete // the ≤ k cheapest distinct complete trees queued, by ascending cost
	limit float64    // the caller's limit plus slack, lowered to the k-th cost plus slack once best holds k trees

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

// sibling is one extension of a recorded tree while a run of them is
// sorted.
type sibling struct {
	cost float64
	hash uint64
	arc  int32
}

// tieLess completes the queue's strict total order: the queue compares
// costs itself and asks tieLess only when they are equal. Two candidates
// the order does not separate have the same cost, root, mask and edge set,
// and are interchangeable. Every candidate a pop pushes is greater than the
// one popped (costs are non-negative; an extension adds an edge, a merge
// adds edges or, with a bare terminal, mask bits), so pops are in ascending
// order.
func (s *search) tieLess(i, j int32) bool {
	a, b := &s.pool[i], &s.pool[j]
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

// cmpSiblings is the queue's order restricted to the extensions of one
// tree: they share edge count and mask, and their hashes differ (edgeHash
// is a bijection), so cost and hash decide.
func cmpSiblings(a, b sibling) int {
	if a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	return cmp.Compare(a.hash, b.hash)
}

// cmpArcs is the order of a node's arcs in a CSR and in a search's delta:
// by cost, then by edgeHash. Arcs of one node have distinct edges, so it is
// total.
func cmpArcs(a, b arc) int {
	if a.cost != b.cost {
		return cmp.Compare(a.cost, b.cost)
	}
	return cmp.Compare(edgeHash(EdgeID(a.edge)), edgeHash(EdgeID(b.edge)))
}

// walk appends c's nodes to *nodes and c's edges to *edges, in no
// particular order; either may be nil. A node where the two parts of a
// merge meet is listed once per part.
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
				*edges = appendPow2(*edges, EdgeID(s.arc(s.exts[c.ext]).edge))
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

// reset prepares the scratch for one search under limit: it builds the
// view's delta and runs terminal 0's Dijkstra only until every other
// terminal is settled. It reports false when some terminal is unreachable
// from the first, so that no tree spans them all. The rest of the distance
// table is filled as far as the limit once it is finite (fillDistances):
// here for a finite limit, else when noteComplete first sets one. Until
// then lower is never read.
func (s *search) reset(g GraphView, terms []NodeID, k int, limit float64) bool {
	s.build(g)
	n := s.n
	s.k, s.terms = k, terms
	s.full = uint32(1)<<uint(len(terms)) - 1
	s.stats = Stats{}
	s.arena = s.arena[:0]
	s.pool = s.pool[:0]
	s.slots = s.slots[:0]
	s.pq.Reset()
	s.exts = s.exts[:0]
	s.best = s.best[:0]
	s.limit = slack(limit)
	s.head = grown(s.head, n)
	for i := range s.head {
		s.head[i] = -1
	}
	s.mark = grown(s.mark, n)
	clear(s.mark)
	s.dist = grown(s.dist, len(terms)*n)

	s.stamp = 1
	for _, t := range terms[1:] {
		s.mark[t] = s.stamp
	}
	row := s.dist[:n]
	s.startDijkstra(terms[0], row)
	unreached := s.dijkstra(row, math.Inf(1), len(terms)-1)
	for _, t := range terms[1:] {
		s.mark[t] = 0
	}
	s.stamp = 0
	if unreached != 0 {
		return false
	}
	if !math.IsInf(s.limit, 1) {
		s.fillDistances(s.limit)
	}
	return true
}

// fillDistances fills the distance table as far as radius: terminal 0's
// Dijkstra resumes where reset stopped it, and every other terminal's runs
// from its source. Afterwards a node within radius of a terminal holds its
// exact distance, and any other node a value above radius, so lower drops a
// candidate against any limit at or below radius exactly as the full table
// would.
func (s *search) fillDistances(radius float64) {
	n := s.n
	s.dijkstra(s.dist[:n], radius, 0)
	for i := 1; i < len(s.terms); i++ {
		row := s.dist[i*n : (i+1)*n]
		s.startDijkstra(s.terms[i], row)
		s.dijkstra(row, radius, 0)
	}
}

func (s *search) run(g GraphView, terms []NodeID, k int, limit float64) []Tree {
	if !s.reset(g, terms, k, limit) {
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
		slot := s.pq.Pop().id
		cur := s.pool[slot]
		s.slots = appendPow2(s.slots, slot)
		s.stats.Pops++
		if cur.a >= 0 && cur.b < 0 {
			// An extension. Its next sibling is no less than it, so it is
			// queued only now, admitted or not, and pops where it would
			// have anyway.
			s.queueExtension(cur.a, cur.ext+1)
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

		// Grow: list the extensions across one arc of the root in queue
		// order, and queue the first.
		if first := s.listExtensions(cur.root, cur.cost, cur.hash); first >= 0 {
			s.queueExtension(ci, first)
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

// listExtensions appends to exts, in queue order, the arcs of v that leave
// the marked tree — a tree of the given cost and hash rooted at v — then
// -1, and returns where the list starts; -1 when no arc leaves the tree.
//
// v's arcs are in cmpArcs order. Float addition is monotone, so the
// extensions' costs ascend along them, and only a run of arcs whose sums
// are equal needs thought. If the run has a single arc cost, its sums
// order by hash + edgeHash, which is the run's edgeHash order rotated where
// the sum wraps: the arcs whose sum wraps come first. If the sums collide across arc
// costs (a cost large enough to absorb their difference), the run is sorted
// as the siblings it holds.
func (s *search) listExtensions(v int32, cost float64, hash uint64) int32 {
	as, at := s.arcs(v)
	first := int32(len(s.exts))
	for i := 0; i < len(as); {
		sum := cost + as[i].cost
		j := i + 1
		for j < len(as) && cost+as[j].cost == sum {
			j++
		}
		if as[i].cost == as[j-1].cost {
			p := i // the first arc whose hash sum wraps
			for p < j && edgeHash(EdgeID(as[p].edge)) <= ^hash {
				p++
			}
			s.appendExtensions(as[p:j], at+int32(p))
			s.appendExtensions(as[i:p], at+int32(i))
		} else {
			s.sibs = s.sibs[:0]
			for a := i; a < j; a++ {
				if s.mark[as[a].to] != s.stamp {
					s.sibs = appendPow2(s.sibs, sibling{sum, hash + edgeHash(EdgeID(as[a].edge)), at + int32(a)})
				}
			}
			slices.SortFunc(s.sibs, cmpSiblings)
			for _, sb := range s.sibs {
				s.exts = appendPow2(s.exts, sb.arc)
			}
		}
		i = j
	}
	if len(s.exts) == int(first) {
		return -1
	}
	s.exts = appendPow2(s.exts, -1)
	return first
}

// appendExtensions appends the numbers of as — arcs numbered from at on —
// to exts, skipping the arcs that lead back into the marked tree (they
// would close a cycle).
func (s *search) appendExtensions(as []arc, at int32) {
	for i, a := range as {
		if s.mark[a.to] != s.stamp {
			s.exts = appendPow2(s.exts, at+int32(i))
		}
	}
}

// queueExtension queues the first extension of recorded tree p at or after
// position i of its list that push keeps. Drops are final (states only
// fill, the limit only falls), so skipping to the next is what the drop of
// an eagerly queued extension would have amounted to.
func (s *search) queueExtension(p, i int32) {
	pc := &s.arena[p]
	for ; s.exts[i] >= 0; i++ {
		a := s.arc(s.exts[i])
		if s.push(cand{
			cost:   pc.cost + a.cost,
			hash:   pc.hash + edgeHash(EdgeID(a.edge)),
			root:   a.to,
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
	var slot int32
	if n := len(s.slots); n > 0 {
		slot = s.slots[n-1]
		s.slots = s.slots[:n-1]
		s.pool[slot] = c
	} else {
		slot = int32(len(s.pool))
		s.pool = appendPow2(s.pool, c)
	}
	s.pq.Push(item{cost: c.cost, id: slot})
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
// It reads the distance table, so only once the limit is set.
func (s *search) lower(root int32, mask uint32) float64 {
	lb := 0.0
	for rest := s.full &^ mask; rest != 0; rest &= rest - 1 {
		lb = max(lb, s.dist[bits.TrailingZeros32(rest)*s.n+int(root)])
	}
	return lb
}

// beyondLimit reports whether every complete tree derived from c costs more
// than the limit: the caller's, or the k-th cheapest distinct complete tree
// already queued. Those k pop first, so c and everything after it in its
// state are dead: no answer derives from them and the search stops before
// they would pop.
func (s *search) beyondLimit(c *cand) bool {
	return !math.IsInf(s.limit, 1) && c.cost+s.lower(c.root, c.mask) > s.limit
}

// noteComplete counts a queued complete tree among the k cheapest distinct
// ones and, once there are k, lowers the limit to the k-th cost plus slack
// if that is below it. The first finite limit fills the distance table as
// far as it; the limit only falls after.
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
		if l := slack(s.best[s.k-1].cost); l < s.limit {
			if math.IsInf(s.limit, 1) {
				s.fillDistances(l)
			}
			s.limit = l
		}
	}
}

// slack widens a limit by a relative slack that covers the float sums'
// evaluation order: one tree's cost summed in two orders differs by far
// less.
func slack(c float64) float64 { return c*(1+1e-9) + 1e-12 }

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
