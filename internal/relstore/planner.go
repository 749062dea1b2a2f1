package relstore

import (
	"fmt"
	"slices"
)

// This file is the join planner: a per-query pass that binds every condition
// once and orders the joins by one structural rule, with no statistics
// (structuralJoinOrder). A branch query is a small select-project-join
// translated from one Steiner tree, so the rule only has to keep the
// pipeline from starting on an unfiltered table when a filtered one exists,
// and from taking a cross product while a join condition connects. The
// streaming executor consumes the resulting queryPlan. Join order provably
// cannot change a single result byte — every ResultSet is sorted under one
// total order with set-semantics dedup — so the planner is verified
// byte-identical against the materialise-everything test oracle
// executeOracle, which joins in the naive first-connected order
// (oracle_test.go; planner_test.go, FuzzExecuteEquivalence and
// FuzzPlanEquivalence).

// selfFilter is a bound join condition whose two sides name the SAME alias
// (`t.a = t.b`): not a join at all but a per-row filter on that atom,
// pushed down next to its selections. Before the planner these conditions
// were silently dropped by both executors — the join-binding loops only
// looked columns up among previously-bound aliases, so a condition whose
// other endpoint was the atom itself never matched anything.
type selfFilter struct {
	li, ri int // attribute indexes within the atom's own relation
}

func (f selfFilter) matches(row []string) bool { return row[f.li] == row[f.ri] }

// bindSelfs collects the query's self-filter conditions on one alias.
// Callers run it after Validate, so attribute resolution cannot fail.
func bindSelfs(rel *Relation, alias string, joins []JoinCond) []selfFilter {
	var out []selfFilter
	for _, j := range joins {
		if j.LeftAlias != alias || j.RightAlias != alias {
			continue
		}
		out = append(out, selfFilter{li: rel.AttrIndex(j.LeftAttr), ri: rel.AttrIndex(j.RightAttr)})
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

// planAtom is one atom with its conditions bound to attribute indexes.
type planAtom struct {
	alias string
	rel   *Relation
	rows  [][]string
	sels  []boundSel
	selfs []selfFilter
}

// filtered reports whether the atom has a pushed-down selection or
// self-filter.
func (a *planAtom) filtered() bool { return len(a.sels) > 0 || len(a.selfs) > 0 }

// queryPlan is a validated, bound, ordered conjunctive query — the input of
// the streaming executor (compileStream).
type queryPlan struct {
	q     *ConjunctiveQuery
	atoms []planAtom
	order []int
}

// planQuery validates a query, binds every atom's conditions and orders its
// joins by the structural rule.
func planQuery(c *Catalog, q *ConjunctiveQuery) (*queryPlan, error) {
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
	p := &queryPlan{q: q, atoms: atoms}
	p.order = structuralJoinOrder(p)
	return p, nil
}

// structuralJoinOrder orders the joins without statistics. The pipeline
// starts at the lowest-index filtered atom (a bound selection or a
// self-filter), or at atom 0 if none is filtered. Each next atom is the
// unplaced one ranking first by, in order: a non-self join condition to the
// placed atoms (so a cross product happens only when nothing connects), a
// filter of its own, and the lower index.
func structuralJoinOrder(p *queryPlan) []int {
	first := 0
	for i := range p.atoms {
		if p.atoms[i].filtered() {
			first = i
			break
		}
	}
	order := make([]int, 1, len(p.atoms))
	order[0] = first
	for len(order) < len(p.atoms) {
		best, bestConn, bestFilt := -1, false, false
		for i := range p.atoms {
			if slices.Contains(order, i) {
				continue
			}
			conn, filt := p.joinsTo(i, order), p.atoms[i].filtered()
			if best == -1 || conn && !bestConn || conn == bestConn && filt && !bestFilt {
				best, bestConn, bestFilt = i, conn, filt
			}
		}
		order = append(order, best)
	}
	return order
}

// joinsTo reports whether atom i has a non-self join condition to any of
// the atoms in set.
func (p *queryPlan) joinsTo(i int, set []int) bool {
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
		for _, si := range set {
			if p.atoms[si].alias == other {
				return true
			}
		}
	}
	return false
}

// ExplainPlan renders the join order Execute would use for the query on this
// catalog: a first line naming the ordering rule, then one line per atom —
// the operator (scan, hash join, nested loop), the atom and its pushed-down
// condition counts.
func ExplainPlan(c *Catalog, q *ConjunctiveQuery) ([]string, error) {
	p, err := planQuery(c, q)
	if err != nil {
		return nil, err
	}
	lines := make([]string, 0, len(p.order)+1)
	lines = append(lines, "order: structural (filtered atom first, then connected before cross product, filtered before unfiltered, lower index)")
	for step, oi := range p.order {
		a := &p.atoms[oi]
		op := "scan"
		if step > 0 {
			op = "nested loop"
			if p.joinsTo(oi, p.order[:step]) {
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
		lines = append(lines, line)
	}
	return lines, nil
}
