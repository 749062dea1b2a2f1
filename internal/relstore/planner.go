package relstore

import (
	"fmt"
	"sort"
	"strings"

	"qint/internal/text"
)

// This file is the cost-based join planner: a per-query planning pass that
// binds every condition once, estimates each atom's post-selection
// cardinality from the value index's per-segment statistics (distinct-value
// entries with row counts — already maintained per table for FindValues),
// and orders joins greedily by estimated intermediate cardinality. The
// streaming executor consumes the resulting queryPlan. The naive
// "first-connected, lowest-index" traversal stays as the baseline the
// BranchesReordered counter compares against, and it is the join order of
// the materialise-everything test oracle executeOracle (oracle_test.go).
// Join order provably cannot change a single result byte — every ResultSet
// is sorted under one total order with set-semantics dedup — so the planner
// is verified byte-identical against that oracle (planner_test.go,
// FuzzExecuteEquivalence).
//
// The planner also canonicalises each query's physical join prefixes
// (prefixSignature) so subtrees shared across a view's branch queries are
// detected structurally — plan.go builds the per-materialisation subplan
// cache on top of these signatures.

// selfFilter is a bound join condition whose two sides name the SAME alias
// (`t.a = t.b`): not a join at all but a per-row filter on that atom,
// pushed down next to its selections. Before the planner these conditions
// were silently dropped by both executors — the join-binding loops only
// looked columns up among previously-bound aliases, so a condition whose
// other endpoint was the atom itself never matched anything.
type selfFilter struct {
	li, ri    int // attribute indexes within the atom's own relation
	op        JoinOp
	threshold float64
}

func (f selfFilter) matches(row []string) bool {
	if f.op == JoinSimilar {
		return text.TrigramSimilarity(
			text.Normalize(row[f.li]),
			text.Normalize(row[f.ri])) >= f.threshold
	}
	return row[f.li] == row[f.ri]
}

// bindSelfs collects the query's self-filter conditions on one alias.
// Callers run it after Validate, so attribute resolution cannot fail.
func bindSelfs(rel *Relation, alias string, joins []JoinCond) []selfFilter {
	var out []selfFilter
	for _, j := range joins {
		if j.LeftAlias != alias || j.RightAlias != alias {
			continue
		}
		out = append(out, selfFilter{
			li:        rel.AttrIndex(j.LeftAttr),
			ri:        rel.AttrIndex(j.RightAttr),
			op:        j.Op,
			threshold: j.Threshold,
		})
	}
	return out
}

// rowAdmits reports whether a base-table row passes an atom's pushed-down
// selections and self-filters.
func rowAdmits(row []string, sels []boundSel, selfs []selfFilter) bool {
	if !matchesBound(row, sels) {
		return false
	}
	for _, f := range selfs {
		if !f.matches(row) {
			return false
		}
	}
	return true
}

// planAtom is one atom with every per-atom decision made: conditions bound
// to attribute indexes, statistics resolved, and a canonical tie-break key.
type planAtom struct {
	alias string
	rel   *Relation
	rows  [][]string
	sels  []boundSel
	selfs []selfFilter

	seg *segment // statistics source
	est float64  // estimated post-selection row count
	key string   // canonical identity for deterministic tie-breaks
}

// queryPlan is a validated, bound, ordered conjunctive query — the input of
// the streaming executor (compileStream) and of the cross-branch subplan
// cache (plan.go).
type queryPlan struct {
	q     *ConjunctiveQuery
	atoms []planAtom
	order []int
	// est[i] is the estimated intermediate cardinality after joining
	// order[:i+1]; nil until planQuery orders the joins.
	est       []float64
	reordered bool // planned order differs from the naive spec order
}

// bindQuery validates a query and binds every atom's conditions, leaving the
// joins in the naive first-connected order.
func bindQuery(c *Catalog, q *ConjunctiveQuery) (*queryPlan, error) {
	if err := q.Validate(c); err != nil {
		return nil, err
	}
	selByAlias := make(map[string][]SelCond)
	for _, s := range q.Selects {
		selByAlias[s.Alias] = append(selByAlias[s.Alias], s)
	}
	atoms := make([]planAtom, len(q.Atoms))
	for i, a := range q.Atoms {
		t := c.Table(a.Relation)
		sels, err := bindSels(t.Relation, selByAlias[a.Alias])
		if err != nil {
			return nil, err
		}
		atoms[i] = planAtom{
			alias: a.Alias,
			rel:   t.Relation,
			rows:  t.Rows,
			sels:  sels,
			selfs: bindSelfs(t.Relation, a.Alias, q.Joins),
		}
	}
	return &queryPlan{q: q, atoms: atoms, order: naiveJoinOrder(q, atoms)}, nil
}

// planQuery binds a query and orders its joins greedily by estimated
// cardinality (plannedJoinOrder).
func planQuery(c *Catalog, q *ConjunctiveQuery) (*queryPlan, error) {
	p, err := bindQuery(c, q)
	if err != nil {
		return nil, err
	}
	naive := p.order
	for i := range p.atoms {
		estimateAtom(c, &p.atoms[i])
	}
	p.order, p.est = plannedJoinOrder(p)
	for i := range p.order {
		if p.order[i] != naive[i] {
			p.reordered = true
			break
		}
	}
	return p, nil
}

// naiveJoinOrder is the unplanned spec order: traverse the join graph
// from atom 0, always joining the lowest-index atom connected to the
// already-joined set; fall back to the lowest-index remaining atom (cross
// product) for disconnected components.
func naiveJoinOrder(q *ConjunctiveQuery, atoms []planAtom) []int {
	joined := map[string]bool{atoms[0].alias: true}
	order := []int{0}
	remaining := make(map[int]bool)
	for i := 1; i < len(atoms); i++ {
		remaining[i] = true
	}
	for len(remaining) > 0 {
		next := -1
		for i := range remaining {
			if connectsTo(q.Joins, atoms[i].alias, joined) {
				if next == -1 || i < next {
					next = i
				}
			}
		}
		if next == -1 { // disconnected: take the lowest-index remaining atom
			for i := range remaining {
				if next == -1 || i < next {
					next = i
				}
			}
		}
		order = append(order, next)
		joined[atoms[next].alias] = true
		delete(remaining, next)
	}
	return order
}

// estimateAtom resolves the atom's statistics segment and estimates its
// post-selection cardinality: exact match counts per selection from the
// segment's distinct-value entries (assumed independent when conjoined),
// 1/max(distinct) for an equi self-filter, a fixed ½ for a similarity one.
// Segment entries cover non-empty values only, so rows holding empty strings
// are invisible to the estimate — an estimation error, never a result error.
func estimateAtom(c *Catalog, a *planAtom) {
	a.seg = c.statsSegment(a.rel.QualifiedName())
	a.key = atomPlanKey(a)
	base := float64(len(a.rows))
	a.est = base
	if base == 0 || a.seg == nil {
		return
	}
	for _, s := range a.sels {
		a.est *= float64(segSelRows(a.seg, s)) / base
	}
	for _, f := range a.selfs {
		if f.op == JoinSimilar {
			a.est *= 0.5
			continue
		}
		d := segDistinct(a.seg, f.li)
		if r := segDistinct(a.seg, f.ri); r > d {
			d = r
		}
		if d < 1 {
			d = 1
		}
		a.est /= float64(d)
	}
}

// segDistinct returns the segment's distinct non-empty value count for one
// attribute.
func segDistinct(seg *segment, attrIdx int) int {
	if seg == nil || attrIdx < 0 || attrIdx+1 >= len(seg.attrStart) {
		return 0
	}
	return seg.attrStart[attrIdx+1] - seg.attrStart[attrIdx]
}

// segSelRows counts the rows one selection matches, exactly, from the
// segment's per-attribute entries: a binary search for OpEq, a pass over the
// attribute's distinct values (precomputed normalisations) for OpContains.
func segSelRows(seg *segment, s boundSel) int {
	if s.attrIdx < 0 || s.attrIdx+1 >= len(seg.attrStart) {
		return 0
	}
	span := seg.entries[seg.attrStart[s.attrIdx]:seg.attrStart[s.attrIdx+1]]
	if s.op == OpContains {
		n := 0
		for _, e := range span {
			if strings.Contains(e.norm, s.norm) {
				n += e.rows
			}
		}
		return n
	}
	i := sort.Search(len(span), func(i int) bool { return span[i].val >= s.value })
	if i < len(span) && span[i].val == s.value {
		return span[i].rows
	}
	return 0
}

// atomPlanKey is the atom's canonical identity for tie-breaks: relation plus
// sorted bound conditions. Breaking estimate ties on this key (before the
// atom's index) makes branches that share a subtree choose the same relative
// order for it regardless of how their aliases are numbered, which maximises
// the shared physical prefixes the subplan cache can exploit.
func atomPlanKey(a *planAtom) string {
	parts := make([]string, 0, len(a.sels)+len(a.selfs))
	for _, s := range a.sels {
		parts = append(parts, fmt.Sprintf("s:%d:%d:%s", s.attrIdx, s.op, s.value))
	}
	for _, f := range a.selfs {
		parts = append(parts, fmt.Sprintf("f:%d:%d:%d:%g", f.li, f.ri, f.op, f.threshold))
	}
	sort.Strings(parts)
	return string(appendLenPrefixed(nil, append([]string{a.rel.QualifiedName()}, parts...)...))
}

// joinSelectivity estimates the combined selectivity of every join condition
// between the candidate atom and the already-placed set: 1/max(distinct) per
// equi-join (classic System-R), a fixed ½ per similarity join.
func joinSelectivity(p *queryPlan, placed []bool, aliasIdx map[string]int, cand int) float64 {
	sel := 1.0
	a := &p.atoms[cand]
	for _, j := range p.q.Joins {
		if j.LeftAlias == j.RightAlias {
			continue // self-filter, already in the atom estimate
		}
		var otherAlias, thisAttr, otherAttr string
		switch a.alias {
		case j.LeftAlias:
			otherAlias, thisAttr, otherAttr = j.RightAlias, j.LeftAttr, j.RightAttr
		case j.RightAlias:
			otherAlias, thisAttr, otherAttr = j.LeftAlias, j.RightAttr, j.LeftAttr
		default:
			continue
		}
		oi, ok := aliasIdx[otherAlias]
		if !ok || !placed[oi] {
			continue
		}
		if j.Op == JoinSimilar {
			sel *= 0.5
			continue
		}
		other := &p.atoms[oi]
		d := segDistinct(a.seg, a.rel.AttrIndex(thisAttr))
		if r := segDistinct(other.seg, other.rel.AttrIndex(otherAttr)); r > d {
			d = r
		}
		if d < 1 {
			d = 1
		}
		sel /= float64(d)
	}
	return sel
}

// plannedJoinOrder orders the atoms greedily by estimated intermediate
// cardinality: start with the smallest estimated atom, then repeatedly join
// the connected atom minimising the estimated result of the next join
// (disconnected atoms — a cross product — only when nothing connects). Ties
// break on (estimate, canonical atom key, atom index), so the order is fully
// deterministic and aligned across branches sharing a subtree. Join order
// never changes a ResultSet byte — the output is sorted and deduplicated
// under one total order — so any estimation error costs time, not answers.
func plannedJoinOrder(p *queryPlan) ([]int, []float64) {
	n := len(p.atoms)
	aliasIdx := make(map[string]int, n)
	for i := range p.atoms {
		aliasIdx[p.atoms[i].alias] = i
	}
	placed := make([]bool, n)
	order := make([]int, 0, n)
	ests := make([]float64, 0, n)

	better := func(estI float64, i, best int, estBest float64) bool {
		if best == -1 || estI != estBest {
			return best == -1 || estI < estBest
		}
		if ki, kb := p.atoms[i].key, p.atoms[best].key; ki != kb {
			return ki < kb
		}
		return i < best
	}

	best, bestEst := -1, 0.0
	for i := range p.atoms {
		if better(p.atoms[i].est, i, best, bestEst) {
			best, bestEst = i, p.atoms[i].est
		}
	}
	order = append(order, best)
	placed[best] = true
	cur := bestEst
	ests = append(ests, cur)

	for len(order) < n {
		anyConnected := false
		for i := 0; i < n && !anyConnected; i++ {
			if !placed[i] {
				anyConnected = connectedToPlaced(p, placed, aliasIdx, i)
			}
		}
		best, bestEst = -1, 0.0
		for i := 0; i < n; i++ {
			if placed[i] || (anyConnected && !connectedToPlaced(p, placed, aliasIdx, i)) {
				continue
			}
			e := cur * p.atoms[i].est * joinSelectivity(p, placed, aliasIdx, i)
			if better(e, i, best, bestEst) {
				best, bestEst = i, e
			}
		}
		order = append(order, best)
		placed[best] = true
		cur = bestEst
		ests = append(ests, cur)
	}
	return order, ests
}

// connectedToPlaced reports whether the atom has a non-self join condition to
// any already-placed atom.
func connectedToPlaced(p *queryPlan, placed []bool, aliasIdx map[string]int, i int) bool {
	alias := p.atoms[i].alias
	for _, j := range p.q.Joins {
		if j.LeftAlias == j.RightAlias {
			continue
		}
		var other string
		switch alias {
		case j.LeftAlias:
			other = j.RightAlias
		case j.RightAlias:
			other = j.LeftAlias
		default:
			continue
		}
		if oi, ok := aliasIdx[other]; ok && placed[oi] {
			return true
		}
	}
	return false
}

// prefixSignature canonicalises the physical identity of the plan's first n
// atoms in join order: relation names, bound selections and self-filters,
// and every join condition whose endpoints both fall inside the prefix —
// each condition anchored to the other endpoint's *position*, so the
// signature is independent of alias naming. Two branches with equal
// signatures compile byte-identical prefix pipelines over the same immutable
// tables, which is what lets the subplan cache substitute one's rows for the
// other's execution (plan.go).
func (p *queryPlan) prefixSignature(n int) string {
	pos := make(map[string]int, n)
	var b []byte
	for i := 0; i < n; i++ {
		a := &p.atoms[p.order[i]]
		b = appendLenPrefixed(b, a.rel.QualifiedName())
		parts := make([]string, 0, len(a.sels)+len(a.selfs))
		for _, s := range a.sels {
			parts = append(parts, fmt.Sprintf("s:%d:%d:%s", s.attrIdx, s.op, s.value))
		}
		for _, f := range a.selfs {
			parts = append(parts, fmt.Sprintf("f:%d:%d:%d:%g", f.li, f.ri, f.op, f.threshold))
		}
		var joins []string
		for _, j := range p.q.Joins {
			if j.LeftAlias == j.RightAlias {
				continue
			}
			var otherAlias, thisAttr, otherAttr string
			switch a.alias {
			case j.LeftAlias:
				otherAlias, thisAttr, otherAttr = j.RightAlias, j.LeftAttr, j.RightAttr
			case j.RightAlias:
				otherAlias, thisAttr, otherAttr = j.LeftAlias, j.RightAttr, j.LeftAttr
			default:
				continue
			}
			if op, ok := pos[otherAlias]; ok && op < i {
				joins = append(joins, fmt.Sprintf("j:%d:%s:%s:%d:%g", op, otherAttr, thisAttr, j.Op, j.Threshold))
			}
		}
		sort.Strings(parts)
		sort.Strings(joins)
		b = appendLenPrefixed(b, parts...)
		b = append(b, '/')
		b = appendLenPrefixed(b, joins...)
		b = append(b, '|')
		pos[a.alias] = i
	}
	return string(b)
}

// ExplainPlan renders the join order Execute would use for the query on this
// catalog, one line per atom: the operator (scan, hash join, nested loop),
// the atom, its pushed-down condition counts, and the estimated intermediate
// cardinality after the step. The first line names the ordering mode.
func ExplainPlan(c *Catalog, q *ConjunctiveQuery) ([]string, error) {
	p, err := planQuery(c, q)
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(p.order)+1)
	lines = append(lines, "order: cost-based (greedy by estimated cardinality)")
	for step, oi := range p.order {
		a := &p.atoms[oi]
		op := "scan"
		if step > 0 {
			op = "nested loop"
			if hasEquiToEarlier(p, step) {
				op = "hash join"
			}
		}
		line := fmt.Sprintf("%s %s=%s", op, a.alias, a.rel.QualifiedName())
		if len(a.sels) > 0 {
			line += fmt.Sprintf(", %d sel", len(a.sels))
		}
		if len(a.selfs) > 0 {
			line += fmt.Sprintf(", %d self-filter", len(a.selfs))
		}
		line += fmt.Sprintf(" (est %.1f rows)", p.est[step])
		lines = append(lines, line)
	}
	return lines, nil
}

// hasEquiToEarlier reports whether the atom at order position `step` has an
// equi-join condition to an atom placed earlier — i.e. whether it joins in
// through a hash join rather than a nested loop.
func hasEquiToEarlier(p *queryPlan, step int) bool {
	pos := make(map[string]int, step)
	for i := 0; i < step; i++ {
		pos[p.atoms[p.order[i]].alias] = i
	}
	alias := p.atoms[p.order[step]].alias
	for _, j := range p.q.Joins {
		if j.Op != JoinEq || j.LeftAlias == j.RightAlias {
			continue
		}
		var other string
		switch alias {
		case j.LeftAlias:
			other = j.RightAlias
		case j.RightAlias:
			other = j.LeftAlias
		default:
			continue
		}
		if _, ok := pos[other]; ok {
			return true
		}
	}
	return false
}
