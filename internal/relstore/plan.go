package relstore

// BatchPlan is the planned form of one branch-query batch: one plan per
// query. Execute is safe for concurrent use across different (or equal)
// indexes. Core runs a view's branches serially (one TopKUnion per
// materialisation); concurrent queries each plan their own batch over one
// published catalog, and the ExecuteBatch test helper executes one plan's
// branches from several workers.
type BatchPlan struct {
	plans []*queryPlan
}

// PlanBatch validates and plans every query of one materialisation batch.
// Queries are validated in index order and the first failure is returned —
// the same error the serial spec path (execute every branch, lowest-index
// error wins) would produce, so even a branch a later top-k bound would skip
// still fails loudly rather than silently succeeding.
func PlanBatch(c *Catalog, queries []*ConjunctiveQuery) (*BatchPlan, error) {
	bp := &BatchPlan{plans: make([]*queryPlan, len(queries))}
	for i, q := range queries {
		p, err := planQuery(c, q)
		if err != nil {
			return nil, err
		}
		bp.plans[i] = p
	}
	return bp, nil
}

// Len returns the number of planned queries.
func (bp *BatchPlan) Len() int { return len(bp.plans) }

// Execute drains branch i into its canonical ResultSet — byte-identical to
// Execute(c, queries[i]) and to the test oracle executeOracle
// (planner_test.go and FuzzExecuteEquivalence pin this).
func (bp *BatchPlan) Execute(i int) (*ResultSet, error) {
	st, err := compileStream(bp.plans[i])
	if err != nil {
		return nil, err
	}
	return st.Drain(), nil
}
