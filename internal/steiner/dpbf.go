package steiner

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
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
	Pops      int  // candidates taken off the queue
	Pushes    int  // candidates put on the queue
	Recorded  int  // candidates kept in a state's k-best list
	Pruned    int  // candidates dropped at push because their state already held k trees
	Truncated bool // the search stopped at maxDPBFPops; the answer may be short
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
	s := searchPool.Get().(*search)
	trees := s.run(g, terms, k)
	stats := s.stats
	s.release()
	return trees, stats
}

// cand is one DP tree rooted at root covering terminal set mask, on the
// queue or — once recorded — in the arena. It does not hold its node or edge
// set: those are implied by how it was derived from recorded candidates
// (a leaf is a bare terminal; an extension is candidate a plus edge, re-rooted
// across it; a merge is the union of a and b, both rooted at root), and are
// walked out of the arena when needed. Trees here are a dozen edges at most.
type cand struct {
	cost   float64
	hash   uint64 // commutative hash of the edge set: sum of edgeHash
	root   int32
	mask   uint32
	nEdges int32
	a, b   int32 // arena indexes; a < 0 for a leaf, b < 0 unless a merge
	edge   int32 // the edge an extension added
	next   int32 // arena only: the candidate recorded before this one at root
}

// edgeHash spreads an edge id over 64 bits (the splitmix64 finaliser), so
// that sums of distinct small edge sets practically never coincide.
func edgeHash(e EdgeID) uint64 {
	x := uint64(e) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// search is the scratch of one TopKSteinerStats call. Everything lives in
// flat slices that a later call reuses through searchPool.
type search struct {
	k     int
	full  uint32
	stats Stats

	arena []cand        // recorded candidates, in pop order
	pq    minHeap[cand] // queued candidates
	head  []int32       // per node: the last candidate recorded at that root, -1 if none
	mark  []uint32      // per node: == stamp when the node is in the tree being expanded
	stamp uint32

	stack     []int32
	ea, eb    []EdgeID
	treeNodes []NodeID
}

// maxPooledLen caps what a pooled search may hold on to: a call whose
// per-node tables, arena or queue grew beyond it drops its scratch instead of
// returning it. At the cap a pooled search is a few MB.
const maxPooledLen = 1 << 16

var searchPool = sync.Pool{New: func() any {
	s := new(search)
	s.pq.less = s.less
	return s
}}

func (s *search) release() {
	if cap(s.head) <= maxPooledLen && cap(s.arena) <= maxPooledLen && cap(s.pq.items) <= maxPooledLen {
		searchPool.Put(s)
	}
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

// walk appends c's nodes to *nodes and c's edges to *edges, in no
// particular order; either may be nil. A node where two merged parts meet is
// listed once per part.
func (s *search) walk(c *cand, nodes *[]NodeID, edges *[]EdgeID) {
	st := s.stack[:0]
	for {
		switch {
		case c.b >= 0: // merge: both parts end at c.root
			st = append(st, c.b)
			c = &s.arena[c.a]
			continue
		case c.a >= 0: // extension
			if edges != nil {
				*edges = append(*edges, EdgeID(c.edge))
			}
			if nodes != nil {
				*nodes = append(*nodes, NodeID(c.root))
			}
			c = &s.arena[c.a]
			continue
		}
		if nodes != nil { // leaf
			*nodes = append(*nodes, NodeID(c.root))
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

func (s *search) reset(g GraphView, terms []NodeID, k int) {
	n := g.NumNodes()
	s.k = k
	s.full = uint32(1)<<uint(len(terms)) - 1
	s.stats = Stats{}
	s.arena = s.arena[:0]
	s.pq.Reset()
	s.head = slices.Grow(s.head[:0], n)[:n]
	for i := range s.head {
		s.head[i] = -1
	}
	s.mark = slices.Grow(s.mark[:0], n)[:n]
	clear(s.mark)
	s.stamp = 0
}

func (s *search) run(g GraphView, terms []NodeID, k int) []Tree {
	s.reset(g, terms, k)
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
		if !s.admits(&cur) {
			continue
		}
		cur.next = s.head[cur.root]
		ci := int32(len(s.arena))
		s.arena = append(s.arena, cur)
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

		// Grow: extend the tree across one incident edge of its root.
		for _, eid := range g.Incident(NodeID(cur.root)) {
			e := g.Edge(eid)
			u := e.U
			if u == NodeID(cur.root) {
				u = e.V
			}
			if s.mark[u] == s.stamp {
				continue // would create a cycle
			}
			s.push(cand{
				cost:   cur.cost + e.Cost,
				hash:   cur.hash + edgeHash(eid),
				root:   int32(u),
				mask:   cur.mask,
				nEdges: cur.nEdges + 1,
				a:      ci,
				b:      -1,
				edge:   int32(eid),
			})
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

// push queues c unless its state already holds k trees: pops are in
// ascending order, so everything queued from now on pops after them and c
// could never be recorded. The drop changes nothing any other candidate does.
func (s *search) push(c cand) {
	if s.stateFull(c.root, c.mask) {
		s.stats.Pruned++
		return
	}
	s.pq.Push(c)
	s.stats.Pushes++
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
