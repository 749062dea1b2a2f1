package relstore

import "sort"

// ResultSet holds the rows produced by executing one conjunctive query.
// Columns follow the query's projection list.
type ResultSet struct {
	Columns []string
	Rows    [][]string
}

// Execute evaluates a conjunctive query against the catalog: the planner
// (planner.go) orders its joins by a structural rule — a filtered atom
// first, then connected atoms before any cross product, filtered before
// unfiltered, lower index first — and rows stream through the
// composed iterator pipeline of stream.go — scan with pushed-down selections,
// pre-sized hash-join probes, cross products, projection/dedup — so no
// intermediate relation is materialised. The result is the canonical
// ResultSet (rows sorted, set semantics), byte-identical to the
// materialise-everything reference executor kept as the test
// oracle executeOracle (oracle_test.go; stream_test.go, planner_test.go and
// FuzzExecuteEquivalence pin it). Only tests call it, to run one branch
// alone: core's TestTopKPruneEquivalence and TestViewHoldsOnlyTopK,
// server's TestFeedbackBeyondTopK and this package's oracles.
func Execute(c *Catalog, q *ConjunctiveQuery) (*ResultSet, error) {
	st, err := BuildStream(c, q)
	if err != nil {
		return nil, err
	}
	return st.Drain(), nil
}

// joinPair relates a column of the accumulated intermediate row to an
// attribute index of the relation being joined in.
type joinPair struct{ leftCol, rightAttrIdx int }

func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}
