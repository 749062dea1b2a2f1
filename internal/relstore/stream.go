package relstore

import (
	"fmt"
	"sort"
)

// This file is the streaming branch executor: the Volcano-style iterator
// pipeline that replaced materialise-everything evaluation as the execution
// path. A conjunctive query compiles into a small chain of pull-based
// operators — table scan with pushed-down selections → hash-join probe
// (build side pre-sized, built from the joined-in atom's filtered rows) or
// nested loop for the cross product of an atom no join condition connects →
// projection with set-semantics deduplication — and rows flow through ONE
// shared row buffer, so no intermediate relation is ever allocated: the only
// per-row allocations are the projected output tuples that survive
// deduplication.
//
// Execute runs here. The materialised executor survives only as the test
// oracle executeOracle (oracle_test.go), and the metamorphic suite in
// stream_test.go pins the two byte-identical on randomised catalogs, join
// shapes. Tuple identity is collision-proof in both: the
// oracle keys joins and dedup by a length-prefixed encoding (which values
// containing NUL bytes, embedded spaces or empty strings cannot forge — the
// row-identity bugs this refactor fixed), and the streaming operators go one
// step further: they bucket by a 64-bit FNV-1a hash of the length-delimited
// values and verify every bucket hit by comparing the actual values, so
// tuple identity never depends on an encoding at all — a hash collision
// costs one string comparison, never a wrong answer.

const (
	fnvOffset64 = 14695981039433928325
	fnvPrime64  = 1099511628211
)

// valHash extends a running FNV-1a hash with one length-delimited value.
func valHash(h uint64, v string) uint64 {
	n := len(v)
	for n > 0 {
		h ^= uint64(n & 0xff)
		h *= fnvPrime64
		n >>= 8
	}
	h ^= 0xff // length terminator
	h *= fnvPrime64
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= fnvPrime64
	}
	return h
}

// boundSel is a selection condition with its attribute index resolved once
// at plan time — the per-row AttrIndex lookups of the old executor hoisted
// out of the row loop.
type boundSel struct {
	attrIdx int
	value   string
}

func (s boundSel) matches(row []string) bool { return row[s.attrIdx] == s.value }

// bindSels resolves a relation's selection conditions to attribute indexes,
// returning a proper error (not an index-out-of-range panic) when an
// attribute is missing.
func bindSels(rel *Relation, sels []SelCond) ([]boundSel, error) {
	if len(sels) == 0 {
		return nil, nil
	}
	out := make([]boundSel, len(sels))
	for i, s := range sels {
		ai := rel.AttrIndex(s.Attr)
		if ai < 0 {
			return nil, fmt.Errorf("relstore: relation %s has no attribute %q", rel.QualifiedName(), s.Attr)
		}
		out[i] = boundSel{attrIdx: ai, value: s.Value}
	}
	return out, nil
}

// rowIter is the streaming operator interface. Next advances the pipeline by
// one row, writing this operator's columns into its segment of the plan's
// shared row buffer, and reports whether a row was produced. Iteration is
// infallible: every fallible step (attribute resolution, validation) runs at
// plan time in BuildStream.
type rowIter interface {
	Next() bool
}

// scanIter streams one atom's table with its pushed-down selections and
// self-filters applied, writing surviving rows into its buffer segment. It
// is the pipeline source: no filtered copy of the table is ever
// materialised.
type scanIter struct {
	rows  [][]string
	sels  []boundSel
	selfs []selfFilter
	buf   []string // this atom's segment of the shared row buffer
	pos   int
}

func (it *scanIter) Next() bool {
	for it.pos < len(it.rows) {
		row := it.rows[it.pos]
		it.pos++
		if rowAdmits(row, it.sels, it.selfs) {
			copy(it.buf, row)
			return true
		}
	}
	return false
}

func matchesBound(row []string, sels []boundSel) bool {
	for _, s := range sels {
		if !s.matches(row) {
			return false
		}
	}
	return true
}

// hashJoinIter joins one atom into the rows streaming from its left input:
// the atom's filtered rows form a pre-sized build table bucketed by the hash
// of the equi-join values, and each left row probes it. Build rows are
// stored by reference (slices into the immutable table) and no key bytes
// are ever materialised — bucket hits are verified by comparing the join
// values themselves. Matching rows are written into the atom's buffer
// segment.
type hashJoinIter struct {
	left  rowIter
	build hashJoinBuild
	pairs []joinPair // leftCol indexes the shared buffer; rightAttrIdx the build row
	buf   []string   // full shared buffer (probes read left columns)
	seg   []string   // this atom's segment of buf
	match int32      // current chain position in build (0 = exhausted)
}

// hashJoinBuild is the build side of a streaming hash join: the atom's
// filtered rows (by reference), hash-chained through two flat arrays —
// head maps a join-value hash to its bucket's first row (1-based), next
// links the rest. Three allocations total, regardless of bucket shape.
type hashJoinBuild struct {
	rows [][]string
	head map[uint64]int32
	next []int32
}

// newHashJoinBuild builds the chained hash table over the atom's filtered
// rows. Selections and self-filters are applied while building, so the probe
// side never sees a row the push-down would have dropped.
func newHashJoinBuild(rows [][]string, sels []boundSel, selfs []selfFilter, pairs []joinPair) hashJoinBuild {
	b := hashJoinBuild{
		head: make(map[uint64]int32, len(rows)),
		rows: make([][]string, 0, len(rows)),
		next: make([]int32, 0, len(rows)),
	}
	for _, row := range rows {
		if !rowAdmits(row, sels, selfs) {
			continue
		}
		h := uint64(fnvOffset64)
		for _, p := range pairs {
			h = valHash(h, row[p.rightAttrIdx])
		}
		b.rows = append(b.rows, row)
		b.next = append(b.next, b.head[h])
		b.head[h] = int32(len(b.rows)) // 1-based
	}
	return b
}

// pairsEqual verifies a hash-bucket candidate: every equi-join pair must
// match on the actual values.
func pairsEqual(buf, row []string, pairs []joinPair) bool {
	for _, p := range pairs {
		if buf[p.leftCol] != row[p.rightAttrIdx] {
			return false
		}
	}
	return true
}

func (it *hashJoinIter) Next() bool {
	for {
		for it.match != 0 {
			m := it.build.rows[it.match-1]
			it.match = it.build.next[it.match-1]
			if pairsEqual(it.buf, m, it.pairs) {
				copy(it.seg, m)
				return true
			}
		}
		if !it.left.Next() {
			return false
		}
		h := uint64(fnvOffset64)
		for _, p := range it.pairs {
			h = valHash(h, it.buf[p.leftCol])
		}
		it.match = it.build.head[h]
	}
}

// nestedLoopIter joins an atom no join condition connects to the atoms
// before it: the cross product SQL semantics require for a disconnected
// atom. The atom's filtered rows are collected once (by reference); each
// left row streams across them.
type nestedLoopIter struct {
	left    rowIter
	rows    [][]string // filtered right rows, by reference
	seg     []string
	ri      int
	started bool
}

func (it *nestedLoopIter) Next() bool {
	for {
		if !it.started {
			if !it.left.Next() {
				return false
			}
			it.started = true
			it.ri = 0
		}
		if it.ri < len(it.rows) {
			copy(it.seg, it.rows[it.ri])
			it.ri++
			return true
		}
		it.started = false
	}
}

// StreamStats counts the work one stream performed.
type StreamStats struct {
	// RowsEmitted is the number of deduplicated projected rows emitted.
	RowsEmitted int64
}

// Stream is a compiled conjunctive query: a pull-based pipeline yielding the
// query's deduplicated projected rows one at a time. Rows stream in pipeline
// order (NOT the canonical sorted order of a ResultSet — Drain sorts); each
// returned slice is freshly allocated and owned by the caller. A Stream is
// single-use and not safe for concurrent use.
type Stream struct {
	cols []string
	root rowIter
	buf  []string
	proj []int // shared-buffer column index per output column
	// Set-semantics dedup without key allocation: emitted rows bucketed by
	// value hash (seen maps a hash to its bucket's most recent row, 1-based;
	// dupNext chains the older ones), bucket hits verified by comparing the
	// projected values.
	seen    map[uint64]int32
	dupNext []int32
	emitted [][]string
	stats   StreamStats
}

// Stats returns the work counters accumulated so far.
func (s *Stream) Stats() StreamStats { return s.stats }

// Next returns the next deduplicated projected row, or ok=false at end of
// stream.
func (s *Stream) Next() ([]string, bool) {
	for s.root.Next() {
		h := uint64(fnvOffset64)
		for _, ci := range s.proj {
			h = valHash(h, s.buf[ci])
		}
		if s.dupAt(h) {
			continue
		}
		proj := make([]string, len(s.proj))
		for i, ci := range s.proj {
			proj[i] = s.buf[ci]
		}
		s.dupNext = append(s.dupNext, s.seen[h])
		s.emitted = append(s.emitted, proj)
		s.seen[h] = int32(len(s.emitted)) // 1-based
		s.stats.RowsEmitted++
		return proj, true
	}
	return nil, false
}

// dupAt reports whether the projected values currently in the shared buffer
// equal an already-emitted row in hash bucket h.
func (s *Stream) dupAt(h uint64) bool {
	for at := s.seen[h]; at != 0; at = s.dupNext[at-1] {
		prev := s.emitted[at-1]
		same := true
		for i, ci := range s.proj {
			if prev[i] != s.buf[ci] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// Drain pulls the stream to exhaustion and returns the canonical ResultSet
// (rows in sorted order, set semantics).
func (s *Stream) Drain() *ResultSet {
	out := &ResultSet{Columns: s.cols}
	for {
		row, ok := s.Next()
		if !ok {
			break
		}
		out.Rows = append(out.Rows, row)
	}
	sortRows(out.Rows)
	return out
}

// BuildStream validates and compiles a conjunctive query into a streaming
// pipeline over the catalog. All attribute resolution happens here, so a
// malformed query is an error at plan time, never a panic mid-iteration.
// Joins run in the planner's structural order (structuralJoinOrder): a
// filtered atom first, then connected atoms before any cross product.
func BuildStream(c *Catalog, q *ConjunctiveQuery) (*Stream, error) {
	p, err := planQuery(c, q)
	if err != nil {
		return nil, err
	}
	return compileStream(p)
}

// compilePipeline assembles the operator chain in join order: a
// selection-filtered scan of the first atom, then one hash-join or
// nested-loop operator per remaining atom, all sharing one row buffer. A
// hash join always builds on the atom that joins in and probes with the rows
// streaming from the left, whatever either side's size. A join condition is
// applied when its later-ordered endpoint joins in, and self-filter
// conditions are pushed down into the scans and build sides rather than
// bound as join pairs — binding them as joins is impossible (the alias binds
// only after its own join step), which is exactly how the old executors
// silently dropped them.
func compilePipeline(p *queryPlan) (rowIter, []string, map[string]int) {
	colOf := make(map[string]int)
	width := 0
	segOf := make([]int, len(p.atoms)) // atom index -> buffer offset
	for _, oi := range p.order {
		a := &p.atoms[oi]
		segOf[oi] = width
		for _, attr := range a.rel.Attributes {
			colOf[a.alias+"."+attr.Name] = width
			width++
		}
	}
	buf := make([]string, width)

	first := &p.atoms[p.order[0]]
	var root rowIter = &scanIter{
		rows:  first.rows,
		sels:  first.sels,
		selfs: first.selfs,
		buf:   buf[:len(first.rel.Attributes)],
	}

	for _, oi := range p.order[1:] {
		a := &p.atoms[oi]
		var pairs []joinPair
		for _, j := range p.q.Joins {
			if j.LeftAlias == j.RightAlias {
				continue // self-filter: pushed down, never a join pair
			}
			var lc, ri int
			var ok bool
			if j.LeftAlias == a.alias {
				lc, ok = colOf[j.RightAlias+"."+j.RightAttr]
				ri = a.rel.AttrIndex(j.LeftAttr)
			} else if j.RightAlias == a.alias {
				lc, ok = colOf[j.LeftAlias+"."+j.LeftAttr]
				ri = a.rel.AttrIndex(j.RightAttr)
			} else {
				continue
			}
			// The other endpoint is bound later in join order: the condition
			// applies when THAT atom joins in.
			if !ok || lc >= segOf[oi] {
				continue
			}
			pairs = append(pairs, joinPair{leftCol: lc, rightAttrIdx: ri})
		}
		seg := buf[segOf[oi] : segOf[oi]+len(a.rel.Attributes)]
		if len(pairs) > 0 {
			root = &hashJoinIter{
				left:  root,
				build: newHashJoinBuild(a.rows, a.sels, a.selfs, pairs),
				pairs: pairs,
				buf:   buf,
				seg:   seg,
			}
		} else {
			var kept [][]string
			for _, row := range a.rows {
				if rowAdmits(row, a.sels, a.selfs) {
					kept = append(kept, row)
				}
			}
			root = &nestedLoopIter{left: root, rows: kept, seg: seg}
		}
	}
	return root, buf, colOf
}

// compileStream wraps the plan's pipeline in a Stream with projection and
// set-semantics dedup.
func compileStream(p *queryPlan) (*Stream, error) {
	st := &Stream{}
	root, buf, colOf := compilePipeline(p)
	cols := make([]string, len(p.q.Project))
	proj := make([]int, len(p.q.Project))
	for i, pc := range p.q.Project {
		cols[i] = pc.As
		ci, ok := colOf[pc.Alias+"."+pc.Attr]
		if !ok {
			return nil, fmt.Errorf("relstore: projection %s.%s not bound", pc.Alias, pc.Attr)
		}
		proj[i] = ci
	}
	st.buf = buf
	st.cols = cols
	st.root = root
	st.proj = proj
	st.seen = make(map[uint64]int32)
	return st, nil
}

// TopKUnionStats counts the work of one BatchPlan.TopKUnion call, making the
// early termination observable as skipped branches.
type TopKUnionStats struct {
	// BranchesExecuted and BranchesSkipped partition the batch: a branch is
	// skipped when k already-collected rows provably outrank every row it
	// could produce (rank is (cost asc, branch asc), and all of one branch's
	// rows share its cost).
	BranchesExecuted int
	BranchesSkipped  int
	// RowsEmitted sums the executed branches' StreamStats.
	RowsEmitted int64
}

// TopKUnion executes the batch's branch queries — in batch order, which core
// produces ascending by tree cost — streaming each branch's rows into the
// ranked disjoint union, and STOPS pulling a branch entirely once the running
// top-k bound is provably unbeatable for it: every row of branch i carries
// that branch query's Cost and loses ties to earlier branches, so once k rows
// with cost ≤ that Cost exist, branch i cannot contribute and is never
// executed. The returned union holds exactly the top k rows (fewer if the
// branches yield fewer) and is byte-identical to the first k rows of
// DisjointUnion(all branches); the unified column list still spans
// every branch's projection (skipped branches' columns are known from their
// queries without executing them). k <= 0 keeps every row.
//
// Every branch was validated by PlanBatch — including branches the bound
// skips — so a malformed branch fails the batch exactly as executing every
// branch would. provenance labels the rows of branch i (core passes query
// signatures). Serial by design: whether branch i runs depends on the rows
// branches 0..i-1 produced.
func (bp *BatchPlan) TopKUnion(k int, provenance []string) (*UnionResult, TopKUnionStats, error) {
	var stats TopKUnionStats
	out := &UnionResult{}
	colIdx := make(map[string]int)
	for _, plan := range bp.plans {
		for _, p := range plan.q.Project {
			if _, ok := colIdx[p.As]; !ok {
				colIdx[p.As] = len(out.Columns)
				out.Columns = append(out.Columns, p.As)
			}
		}
	}

	// rows collected so far, each branch's slice pre-sorted and truncated to
	// k (rows beyond the k-th of one branch can never be in the union's top
	// k: they tie on (cost, branch) and lose on row order).
	var rows []UnionRow
	atOrBelow := func(cost float64) int {
		n := 0
		for _, r := range rows {
			if r.Cost <= cost {
				n++
			}
		}
		return n
	}
	for bi, plan := range bp.plans {
		cost := plan.q.Cost
		if k > 0 && atOrBelow(cost) >= k {
			stats.BranchesSkipped++
			continue
		}
		st, err := compileStream(plan)
		if err != nil {
			return nil, stats, err
		}
		rs := st.Drain()
		stats.BranchesExecuted++
		stats.RowsEmitted += st.Stats().RowsEmitted

		mapping := make([]int, len(rs.Columns))
		for i, col := range rs.Columns {
			mapping[i] = colIdx[col]
		}
		prov := ""
		if bi < len(provenance) {
			prov = provenance[bi]
		}
		branchRows := rs.Rows
		if k > 0 && len(branchRows) > k {
			branchRows = branchRows[:k]
		}
		for _, row := range branchRows {
			u := UnionRow{
				Values:     make([]string, len(out.Columns)),
				Cost:       cost,
				Branch:     bi,
				Provenance: prov,
			}
			for i, v := range row {
				u.Values[mapping[i]] = v
			}
			rows = append(rows, u)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Cost != rows[j].Cost {
			return rows[i].Cost < rows[j].Cost
		}
		return rows[i].Branch < rows[j].Branch
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	out.Rows = rows
	return out, stats, nil
}
