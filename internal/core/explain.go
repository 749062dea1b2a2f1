package core

import (
	"fmt"
	"strings"

	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// Explanation is the provenance of one view answer (paper §2.2: answers are
// "annotated with provenance information about their originating queries"):
// the Steiner tree that produced it, the generated SQL, and the association
// and foreign-key edges the join relied on — the alignments a user is
// implicitly judging when marking the answer good or bad.
type Explanation struct {
	// Tree is the originating query tree.
	Tree steiner.Tree
	// SQL is the SQL of the branch query that produced the answer, as it
	// ran (its output columns aligned to the view's).
	SQL string
	// Cost is the answer's ranking cost.
	Cost float64
	// Joins describes each join edge used: "a ~ b (association, cost c)".
	Joins []string
	// Keywords describes each keyword match used.
	Keywords []string
	// Plan describes the execution plan of the originating branch query:
	// a first line naming the structural ordering rule, then one line per
	// atom in join order — the operator (scan, hash join, nested loop) and
	// its pushed-down condition counts.
	Plan []string
}

// Explain returns the provenance of the answer at rowIdx of m, resolved
// against m's overlay and catalog; the SQL and plan are those of the
// branch query that produced the row. It is a pure read: safe to call
// concurrently with queries and writers.
func (q *Q) Explain(m Materialization, rowIdx int) (*Explanation, error) {
	mat := m.m
	if mat == nil || mat.result == nil || rowIdx < 0 || rowIdx >= len(mat.result.Rows) {
		return nil, fmt.Errorf("core: explain row %d out of range", rowIdx)
	}
	row := mat.result.Rows[rowIdx]
	tree, err := mat.treeOf(row.Branch)
	if err != nil {
		return nil, err
	}
	cq := mat.queries[row.Branch]
	ov := mat.ov
	ex := &Explanation{Tree: tree, SQL: cq.SQL(), Cost: row.Cost}
	// A plan rendering failure must not silently vanish from the
	// explanation (it used to): count it and surface the error in place of
	// the plan lines — the rest of the provenance is still valid.
	if plan, perr := relstore.ExplainPlan(mat.cat, cq); perr != nil {
		q.metrics.explainErrors.Inc()
		ex.Plan = []string{fmt.Sprintf("plan: %v", perr)}
	} else {
		ex.Plan = plan
	}
	for _, eid := range tree.Edges {
		e := ov.Edge(eid)
		switch e.Kind {
		case searchgraph.EdgeAssociation, searchgraph.EdgeForeignKey:
			ex.Joins = append(ex.Joins, fmt.Sprintf("%s ~ %s (%s, cost %.3f)",
				e.A, e.B, e.Kind, ov.Cost(eid)))
		case searchgraph.EdgeKeyword:
			u, vEnd := ov.Endpoints(eid)
			kwNode, target := ov.Node(u), ov.Node(vEnd)
			if kwNode.Kind != searchgraph.KindKeyword {
				kwNode, target = target, kwNode
			}
			ex.Keywords = append(ex.Keywords, fmt.Sprintf("%q matched %s (cost %.3f)",
				kwNode.Value, target.Label(), ov.Cost(eid)))
		}
	}
	return ex, nil
}

// String renders the explanation for terminals and logs.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost %.3f, tree %s\n", e.Cost, e.Tree.Key())
	for _, k := range e.Keywords {
		fmt.Fprintf(&b, "  keyword: %s\n", k)
	}
	for _, j := range e.Joins {
		fmt.Fprintf(&b, "  join:    %s\n", j)
	}
	for _, p := range e.Plan {
		fmt.Fprintf(&b, "  plan:    %s\n", p)
	}
	fmt.Fprintf(&b, "  sql:     %s", e.SQL)
	return b.String()
}
