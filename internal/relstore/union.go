package relstore

import "sort"

// Branch is one arm of a disjoint union: a result set plus the cost of the
// query that produced it and an opaque provenance label (typically the SQL
// text or tree id of the originating query).
type Branch struct {
	Result     *ResultSet
	Cost       float64
	Provenance string
}

// UnionRow is one ranked output tuple of a view: its values under the
// unified schema (empty string for columns the branch does not produce),
// the branch cost, and which branch it came from.
type UnionRow struct {
	Values     []string
	Cost       float64
	Branch     int
	Provenance string
}

// UnionResult is the ranked disjoint ("outer") union of several branches
// under a single unified output schema (paper §2.2).
type UnionResult struct {
	Columns []string
	Rows    []UnionRow
}

// DisjointUnion merges branches, building the unified column list in branch
// order: the first branch's columns seed the schema, and each later branch's
// columns are appended unless an identically-named column already exists
// (column-name unification is the caller's job — Q renames compatible
// attributes before calling, per §2.2). Rows are ranked by ascending cost,
// ties broken by branch order then row order, so output is deterministic.
// Only tests call it, as the full union top-k execution must be a prefix
// of: core's TestTopKPruneEquivalence and this package's oracles.
func DisjointUnion(branches []Branch) *UnionResult {
	out := &UnionResult{}
	colIdx := make(map[string]int)
	for _, br := range branches {
		for _, col := range br.Result.Columns {
			if _, ok := colIdx[col]; !ok {
				colIdx[col] = len(out.Columns)
				out.Columns = append(out.Columns, col)
			}
		}
	}
	for bi, br := range branches {
		// Map branch columns into the unified schema.
		mapping := make([]int, len(br.Result.Columns))
		for i, col := range br.Result.Columns {
			mapping[i] = colIdx[col]
		}
		for _, row := range br.Result.Rows {
			u := UnionRow{
				Values:     make([]string, len(out.Columns)),
				Cost:       br.Cost,
				Branch:     bi,
				Provenance: br.Provenance,
			}
			for i, v := range row {
				u.Values[mapping[i]] = v
			}
			out.Rows = append(out.Rows, u)
		}
	}
	sort.SliceStable(out.Rows, func(i, j int) bool {
		if out.Rows[i].Cost != out.Rows[j].Cost {
			return out.Rows[i].Cost < out.Rows[j].Cost
		}
		return out.Rows[i].Branch < out.Rows[j].Branch
	})
	return out
}
