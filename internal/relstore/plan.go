package relstore

import (
	"sync"
	"sync/atomic"
)

// This file is the cross-branch common-subexpression elimination layer on
// top of the planner: one BatchPlan per view materialisation plans every
// branch query, detects join prefixes shared across branches by canonical
// signature (planner.go prefixSignature), and pins each shared prefix's
// joined rows in a per-materialisation subplan cache so the common subtree
// executes ONCE no matter how many branches contain it. Both batch entry
// points feed from it: BatchPlan.Execute (one branch) and
// BatchPlan.TopKUnion (stream.go), the view execution path.
//
// Correctness is structural: a cached prefix holds exactly the rows the
// reusing branch's own pipeline would have produced for those atoms (same
// relations, same bound conditions, same intra-prefix joins, same immutable
// tables — that is what signature equality means), streamed into the
// continuation in the same deterministic order. The CSE scope is one
// BatchPlan — one materialisation — so cached rows never outlive the
// catalog generation they were computed from; caching across
// materialisations is the query cache's job (the epoch-keyed qcache).

// PlanStats counts one BatchPlan's planning and sharing work — accumulated
// per instance by core and served on /stats.
type PlanStats struct {
	// BranchesPlanned is the number of branch queries planned.
	BranchesPlanned int64 `json:"branches_planned"`
	// BranchesReordered counts planned branches whose cost-based join order
	// differs from the naive spec order.
	BranchesReordered int64 `json:"branches_reordered"`
	// SharedSubtrees is the number of distinct join prefixes shared by at
	// least two branches of one batch (each backs one subplan cache entry).
	SharedSubtrees int64 `json:"shared_subtrees"`
	// SubplansComputed counts shared prefixes actually materialised — at
	// most once each; prefixes of branches the top-k union skipped are
	// never computed at all.
	SubplansComputed int64 `json:"subplans_computed"`
	// CSEHits counts branch executions served from an already-computed
	// subplan instead of re-executing the shared subtree.
	CSEHits int64 `json:"cse_hits"`
}

// Add accumulates another snapshot into s.
func (s *PlanStats) Add(o PlanStats) {
	s.BranchesPlanned += o.BranchesPlanned
	s.BranchesReordered += o.BranchesReordered
	s.SharedSubtrees += o.SharedSubtrees
	s.SubplansComputed += o.SubplansComputed
	s.CSEHits += o.CSEHits
}

// subplanRowCap bounds the estimated cardinality of a prefix the cache will
// materialise: CSE trades the memory of one joined intermediate for the work
// of re-executing it per branch, and above this bound the memory side of the
// trade loses. Estimates only — never correctness.
const subplanRowCap = 1 << 20

// subplanEntry is one shared join prefix: its length in atoms and, once the
// first branch needing it runs, the prefix pipeline's joined rows
// (full-width, in deterministic pipeline order). Concurrent branches
// coalesce on the sync.Once, so the prefix executes exactly once per
// materialisation.
type subplanEntry struct {
	n     int
	once  sync.Once
	rows  [][]string
	stats StreamStats
}

// BatchPlan is the planned form of one branch-query batch: per-query plans
// plus the shared-prefix subplan cache. Stream and Execute are safe for
// concurrent use across different (or equal) indexes. Core runs a view's
// branches serially (one TopKUnion per materialisation); concurrent queries
// each plan their own batch over one published catalog, and the
// ExecuteBatch test helper executes one plan's branches from several
// workers.
type BatchPlan struct {
	cat    *Catalog
	plans  []*queryPlan
	prefix []*subplanEntry // per query; nil = no shared prefix

	branchesPlanned   int64
	branchesReordered int64
	sharedSubtrees    int64
	subplansComputed  atomic.Int64
	cseHits           atomic.Int64
}

// PlanBatch validates and plans every query of one materialisation batch and
// wires up the shared-subtree cache. Queries are validated in index order
// and the first failure is returned — the same error the serial spec path
// (execute every branch, lowest-index error wins) would produce, so even a
// branch a later top-k bound would skip still fails loudly rather than
// silently succeeding.
func PlanBatch(c *Catalog, queries []*ConjunctiveQuery) (*BatchPlan, error) {
	bp := &BatchPlan{
		cat:    c,
		plans:  make([]*queryPlan, len(queries)),
		prefix: make([]*subplanEntry, len(queries)),
	}
	type sigRef struct {
		sig string
		n   int
	}
	sigs := make([][]sigRef, len(queries))
	count := make(map[string]int)
	for i, q := range queries {
		p, err := planQuery(c, q)
		if err != nil {
			return nil, err
		}
		bp.plans[i] = p
		bp.branchesPlanned++
		if p.reordered {
			bp.branchesReordered++
		}
		for n := 1; n <= len(p.atoms); n++ {
			if !cseEligible(p, n) {
				continue
			}
			sig := p.prefixSignature(n)
			sigs[i] = append(sigs[i], sigRef{sig: sig, n: n})
			count[sig]++
		}
	}
	entries := make(map[string]*subplanEntry)
	for i := range queries {
		// Longest prefix shared with at least one other branch wins: the
		// more of the pipeline the cache replaces, the less re-execution.
		for j := len(sigs[i]) - 1; j >= 0; j-- {
			sr := sigs[i][j]
			if count[sr.sig] < 2 {
				continue
			}
			e := entries[sr.sig]
			if e == nil {
				e = &subplanEntry{n: sr.n}
				entries[sr.sig] = e
			}
			bp.prefix[i] = e
			break
		}
	}
	bp.sharedSubtrees = int64(len(entries))
	return bp, nil
}

// cseEligible reports whether the plan's first n atoms are worth caching: a
// single unfiltered scan is cheaper to repeat than to copy, and a prefix
// whose estimated cardinality blows past subplanRowCap would trade too much
// memory for the saved work.
func cseEligible(p *queryPlan, n int) bool {
	if n == 1 {
		a := &p.atoms[p.order[0]]
		if len(a.sels) == 0 && len(a.selfs) == 0 {
			return false
		}
	}
	return p.est[n-1] <= subplanRowCap
}

// Len returns the number of planned queries.
func (bp *BatchPlan) Len() int { return len(bp.plans) }

// Stream compiles branch i's pipeline, sourcing its shared join prefix (if
// any) from the subplan cache — computing the prefix on first use, reusing
// the pinned rows afterwards.
func (bp *BatchPlan) Stream(i int) (*Stream, error) {
	p := bp.plans[i]
	e := bp.prefix[i]
	if e == nil {
		return compileStream(p, nil)
	}
	computed := false
	e.once.Do(func() {
		computed = true
		e.rows, e.stats = drainPrefix(p, e.n)
	})
	if computed {
		bp.subplansComputed.Add(1)
	} else {
		bp.cseHits.Add(1)
	}
	st, err := compileStream(p, e)
	if err != nil {
		return nil, err
	}
	if computed {
		// The computing branch carries the prefix's scan work in its stats;
		// reusing branches scanned nothing — that asymmetry IS the saving.
		st.stats.RowsScanned += e.stats.RowsScanned
	}
	return st, nil
}

// Execute drains branch i into its canonical ResultSet — byte-identical to
// Execute(c, queries[i]) and to the test oracle executeOracle
// (planner_test.go and FuzzExecuteEquivalence pin this).
func (bp *BatchPlan) Execute(i int) (*ResultSet, error) {
	st, err := bp.Stream(i)
	if err != nil {
		return nil, err
	}
	rs := st.Drain()
	bp.cat.countExec(len(rs.Rows))
	return rs, nil
}

// Stats snapshots the batch's planning counters.
func (bp *BatchPlan) Stats() PlanStats {
	return PlanStats{
		BranchesPlanned:   bp.branchesPlanned,
		BranchesReordered: bp.branchesReordered,
		SharedSubtrees:    bp.sharedSubtrees,
		SubplansComputed:  bp.subplansComputed.Load(),
		CSEHits:           bp.cseHits.Load(),
	}
}
