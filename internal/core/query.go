package core

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"qint/internal/obs"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// View is a persistent keyword-search view (paper §2.3): the definition
// (keywords, k) plus the current materialisation (top-k query trees, their
// conjunctive queries and the ranked, unioned result). Views are refreshed
// whenever search-graph maintenance changes costs or topology.
//
// The materialisation is swapped atomically: readers (HTTP handlers, other
// goroutines) call Trees/Queries/Result/Alpha and get one coherent
// generation, while a concurrent Refresh builds the next generation aside
// and publishes it with a pointer store. Keywords and K are immutable after
// creation.
type View struct {
	Keywords []string
	K        int

	mat atomic.Pointer[viewMat]
}

// viewMat is one immutable materialisation of a view: everything computed
// from one published state generation. Its trees and queries reference node
// and edge ids of its own overlay (ov), which extends the generation's
// graph snapshot — so provenance stays resolvable for explain and feedback
// for as long as the materialisation is current.
type viewMat struct {
	epoch     uint64
	st        *qstate
	ov        *searchgraph.Overlay
	terminals []steiner.NodeID

	trees   []steiner.Tree
	queries []*relstore.ConjunctiveQuery
	result  *relstore.UnionResult
	alpha   float64
}

// Trees returns the view's current top-k Steiner trees (cost order).
func (v *View) Trees() []steiner.Tree {
	if m := v.mat.Load(); m != nil {
		return m.trees
	}
	return nil
}

// Queries returns the view's current conjunctive queries (tree-cost order,
// signature-deduplicated).
func (v *View) Queries() []*relstore.ConjunctiveQuery {
	if m := v.mat.Load(); m != nil {
		return m.queries
	}
	return nil
}

// Result returns the view's current ranked, unioned result.
func (v *View) Result() *relstore.UnionResult {
	if m := v.mat.Load(); m != nil {
		return m.result
	}
	return nil
}

// Alpha returns the cost of the k-th (worst) retained answer — the pruning
// radius of VIEWBASEDALIGNER.
func (v *View) Alpha() float64 {
	if m := v.mat.Load(); m != nil {
		return m.alpha
	}
	return 0
}

// Epoch returns the published-state generation the view's current
// materialisation was computed at.
func (v *View) Epoch() uint64 {
	if m := v.mat.Load(); m != nil {
		return m.epoch
	}
	return 0
}

// Materialization is one coherent, immutable materialisation of a view:
// everything the view computed from a single published state generation.
// Use Current when several fields must agree (e.g. rows with their α): the
// individual accessors each load the latest generation, so two calls that
// straddle a concurrent Refresh may come from different generations.
type Materialization struct {
	Epoch   uint64
	Trees   []steiner.Tree
	Queries []*relstore.ConjunctiveQuery
	Result  *relstore.UnionResult
	Alpha   float64

	m *viewMat
}

// Current returns the view's current materialisation as one coherent
// snapshot (a single atomic load). Its Node/Edge/EdgeCost methods resolve
// the ids of ITS trees against ITS overlay — under concurrent writers,
// prefer them over the View-level shortcuts, which re-load the latest
// generation on every call.
func (v *View) Current() Materialization {
	m := v.mat.Load()
	if m == nil {
		return Materialization{}
	}
	return Materialization{
		Epoch:   m.epoch,
		Trees:   m.trees,
		Queries: m.queries,
		Result:  m.result,
		Alpha:   m.alpha,
		m:       m,
	}
}

// Node resolves a node id of this materialisation's trees — base or
// overlay — to its search-graph metadata.
func (m Materialization) Node(id steiner.NodeID) searchgraph.Node {
	if m.m == nil {
		return searchgraph.Node{}
	}
	return m.m.ov.Node(id)
}

// Edge resolves an edge id of this materialisation's trees — base or
// overlay — to its search-graph metadata.
func (m Materialization) Edge(id steiner.EdgeID) searchgraph.Edge {
	if m.m == nil {
		return searchgraph.Edge{}
	}
	return m.m.ov.Edge(id)
}

// EdgeCost returns the cost (at materialisation time) of an edge of this
// materialisation's trees.
func (m Materialization) EdgeCost(id steiner.EdgeID) float64 {
	if m.m == nil {
		return 0
	}
	return m.m.ov.Cost(id)
}

// Node resolves a node id against the view's LATEST materialisation. The
// id must come from that same materialisation: callers holding trees
// across a possible concurrent Refresh should capture Current() once and
// use its resolvers instead.
func (v *View) Node(id steiner.NodeID) searchgraph.Node { return v.Current().Node(id) }

// Edge resolves an edge id against the view's LATEST materialisation (see
// Node for the coherence caveat).
func (v *View) Edge(id steiner.EdgeID) searchgraph.Edge { return v.Current().Edge(id) }

// EdgeCost returns an edge's cost in the view's LATEST materialisation
// (see Node for the coherence caveat).
func (v *View) EdgeCost(id steiner.EdgeID) float64 { return v.Current().EdgeCost(id) }

// Query parses a keyword query ('single quotes' group phrases), expands a
// private query-graph overlay over the current published snapshot, computes
// the top-k Steiner trees, generates and executes their conjunctive
// queries, and unions the answers into a ranked view. The view is
// persistent: it is retained for refresh on future search-graph
// maintenance.
//
// Query acquires no graph-wide lock: it works entirely against the state
// generation current at its start, so it runs concurrently with other
// queries AND with writers. A registration or feedback update committed
// after the query starts is not visible to it; the next Refresh (which
// every writer triggers or implies) brings the view up to date.
func (q *Q) Query(query string) (*View, error) { return q.QueryWith(query, 0) }

// QueryWith is Query with a per-call parallelism override (0 means the
// published default). The override sizes this call's own translation and
// execution fan-out; the global in-flight execution bound still applies.
// Answers are byte-identical at any setting.
//
// Repeated queries are served from the materialisation cache: two views
// with the same keyword sequence at the same published epoch share one
// immutable materialisation (and N concurrent identical cold queries
// compute it once — see cache.go), with answers byte-identical to an
// uncached run.
func (q *Q) QueryWith(query string, parallelism int) (*View, error) {
	keywords := parseKeywords(query)
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword query %q", query)
	}
	return q.queryKeywords(keywords, 0, parallelism)
}

// QueryEphemeralWith is QueryWith for answers-only traffic: it computes
// the view materialisation (through the same epoch-keyed cache, so a hot
// keyword stream is still near-free) but does NOT register the view in the
// maintenance set. The returned View carries its answers, yet it never
// participates in refreshes or VIEWBASEDALIGNER neighbourhoods and holds
// no reference from Q — a storm of ephemeral queries leaves the engine's
// footprint bounded by the materialisation cache's LRU capacity. This is
// the serving path for load drivers and stateless read traffic
// (POST /query?ephemeral=1 in internal/server).
func (q *Q) QueryEphemeralWith(query string, parallelism int) (*View, error) {
	keywords := parseKeywords(query)
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword query %q", query)
	}
	v, _, err := q.runQuery(keywords, 0, parallelism, true, nil)
	return v, err
}

// QueryTraced is QueryWith with per-stage tracing: the returned trace
// carries the query's id and stage breakdown (cache lookup, expansion,
// Steiner search, translation, planning, execution, materialisation) and
// its totals are folded into the qint_query_stage_* metric families.
// Tracing is per-call: untraced queries pay one nil check per stage and no
// clock reads.
func (q *Q) QueryTraced(query string, parallelism int) (*View, *obs.Trace, error) {
	keywords := parseKeywords(query)
	if len(keywords) == 0 {
		return nil, nil, fmt.Errorf("core: empty keyword query %q", query)
	}
	return q.runQuery(keywords, 0, parallelism, false, obs.NewTrace())
}

// QueryEphemeralTraced is QueryEphemeralWith with per-stage tracing (see
// QueryTraced) — the serving path's traced variant.
func (q *Q) QueryEphemeralTraced(query string, parallelism int) (*View, *obs.Trace, error) {
	keywords := parseKeywords(query)
	if len(keywords) == 0 {
		return nil, nil, fmt.Errorf("core: empty keyword query %q", query)
	}
	return q.runQuery(keywords, 0, parallelism, true, obs.NewTrace())
}

// QueryKeywords runs a keyword query from an already-split keyword list,
// bypassing the quote-aware string parser entirely — keywords containing
// quotes, spaces, or any other byte sequence (even ones parseKeywords could
// never produce) pass through verbatim. k bounds the view's answer count;
// k <= 0 uses the configured default. This is the restart path: persisted
// views are saved as (keywords, k) and must round-trip exactly, not through
// a lossy re-quoting of their keyword list.
func (q *Q) QueryKeywords(keywords []string, k int) (*View, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("core: empty keyword list")
	}
	return q.queryKeywords(append([]string(nil), keywords...), k, 0)
}

// queryKeywords is the shared tail of QueryWith and QueryKeywords:
// materialise (through the cache) at the requested k and register the view.
func (q *Q) queryKeywords(keywords []string, k, parallelism int) (*View, error) {
	v, _, err := q.runQuery(keywords, k, parallelism, false, nil)
	return v, err
}

// runQuery is the single tail every query entry point funnels through:
// materialise through the cache at the requested k, register the view
// unless the call is ephemeral, and account the query (and its trace, when
// one is attached) in the engine metrics.
func (q *Q) runQuery(keywords []string, k, parallelism int, ephemeral bool, tr *obs.Trace) (*View, *obs.Trace, error) {
	if k <= 0 {
		k = q.opts.K
	}
	m := q.metrics
	m.queries.Inc()
	st := q.state()
	mat, err := q.materializeCached(st, keywords, k, parallelism, tr)
	if err != nil {
		m.queryErrors.Inc()
		q.observeTrace(tr)
		return nil, tr, err
	}
	v := &View{Keywords: keywords, K: k}
	v.mat.Store(mat)
	if !ephemeral {
		q.viewsMu.Lock()
		q.views = append(q.views, v)
		q.viewsMu.Unlock()
	}
	q.observeTrace(tr)
	return v, tr, nil
}

// expandKeyword adds one keyword's query-graph expansion to the overlay
// (paper §2.2): similarity edges to matching schema elements via tf-idf,
// and lazily-materialised value nodes for matching data values. The
// expansion is a pure function of the state generation — it writes only to
// the overlay, never to the shared graph.
func (q *Q) expandKeyword(st *qstate, ov *searchgraph.Overlay, kw string) steiner.NodeID {
	kwNode := ov.KeywordNode(kw)

	// Metadata matches: attributes and relations by tf-idf cosine.
	for _, m := range st.corpus.TopMatches(kw, q.opts.MatchThreshold, q.opts.MaxMatchesPerKeyword) {
		switch {
		case len(m.ID) > 5 && m.ID[:5] == "attr:":
			ref, err := relstore.ParseAttrRef(m.ID[5:])
			if err != nil {
				continue
			}
			nid := st.graph.LookupAttribute(ref)
			if nid < 0 {
				continue
			}
			ov.AddKeywordEdge(kwNode, nid, m.Score)
		case len(m.ID) > 4 && m.ID[:4] == "rel:":
			nid := st.graph.LookupRelation(m.ID[4:])
			if nid < 0 {
				continue
			}
			ov.AddKeywordEdge(kwNode, nid, m.Score)
		}
	}

	// Data-value matches: lazily create value nodes (paper §2.1/§2.2). The
	// scored, truncated match list comes from the expansion cache when this
	// is a published generation (computeValueExpansions in cache.go is the
	// uncached path — FindValues over the inverted value index, similarity
	// scoring, deterministic truncation); only the overlay wiring is
	// per-query work on a hit.
	for _, vm := range q.valueExpansions(st, kw) {
		vn := ov.ValueNode(vm.Ref, vm.Value)
		if vn < 0 {
			continue // attribute unknown to this graph generation
		}
		ov.AddKeywordEdge(kwNode, vn, vm.Sim)
	}
	return kwNode
}

// materializeAt computes a full materialisation of a keyword query against
// one state generation. It runs in two phases. The plan phase expands the
// keywords into a fresh overlay, computes the top-k trees and translates
// them into deduplicated, column-aligned conjunctive queries — all against
// private or frozen data, so no lock is needed. The execute phase fans the
// branch executions across the bounded worker pool; branches are collected
// by query index, so the DisjointUnion sees them in tree-cost order and the
// result is byte-identical at any parallelism.
//
// The returned viewMat is immutable (its overlay is never mutated after
// this function returns), so the materialisation cache can hand one result
// to any number of views and concurrent readers; callers go through
// materializeCached.
//
// tr, when non-nil, receives one span per pipeline stage (expand, steiner,
// translate, plan, execute, materialize); a nil trace costs one nil check
// per stage and no clock reads.
func (q *Q) materializeAt(st *qstate, keywords []string, k, parallelism int, tr *obs.Trace) (*viewMat, error) {
	workers := parallelism
	if workers <= 0 {
		workers = st.parallelism
	}
	ov := st.graph.NewOverlay()
	texp := tr.Now()
	terminals := make([]steiner.NodeID, 0, len(keywords))
	for _, kw := range keywords {
		terminals = append(terminals, q.expandKeyword(st, ov, kw))
	}
	tr.Record(obs.StageExpand, texp)
	trees, queries, err := q.planOverlay(st, ov, terminals, k, workers, tr)
	if err != nil {
		return nil, err
	}
	result, err := q.executeBranches(st, queries, k, workers, tr)
	if err != nil {
		return nil, err
	}
	tmat := tr.Now()
	// α is the cost of the k-th top-scoring RESULT (paper §3.3: "the cost
	// of the kth top-scoring result for the user view") — when the best
	// query yields many tuples, α stays at that query's cost, keeping the
	// VIEWBASEDALIGNER neighbourhood tight. Fall back to the worst retained
	// tree when the view yields fewer than k tuples.
	alpha := 0.0
	switch {
	case len(result.Rows) >= k && k > 0:
		alpha = result.Rows[k-1].Cost
	case len(result.Rows) > 0:
		alpha = result.Rows[len(result.Rows)-1].Cost
		if len(trees) > 0 && trees[len(trees)-1].Cost > alpha {
			alpha = trees[len(trees)-1].Cost
		}
	case len(trees) > 0:
		alpha = trees[len(trees)-1].Cost
	}
	m := &viewMat{
		epoch:     st.epoch,
		st:        st,
		ov:        ov,
		terminals: terminals,
		trees:     trees,
		queries:   queries,
		result:    result,
		alpha:     alpha,
	}
	tr.Record(obs.StageMaterialize, tmat)
	return m, nil
}

// executeBranches is the execute phase of materialisation: the branch
// queries (tree-cost order) stream their projected rows into the ranked
// disjoint union. On the default path the batch is planned as a unit
// (relstore.PlanBatch): each branch's joins are ordered by estimated
// cardinality, join subtrees shared across branches execute once through the
// per-materialisation subplan cache, and each branch compiles into a
// streaming iterator pipeline (no intermediate relation is materialised
// beyond the shared subplans). Branches fan across the bounded worker pool,
// collected by query index so the union sees them in tree-cost order.
// Options.PlannerOff reverts to per-branch execution in the naive spec join
// order; Options.MaterialisedExec forces the reference
// materialise-everything executor — all byte-identically. With
// Options.TopKPrune the scorer additionally pulls branches serially in cost
// order and stops — skipping a branch's execution entirely — once the
// running top-k bound is provably unbeatable for it; the result then holds
// exactly the top-k rows (see the knob's doc for the contract).
func (q *Q) executeBranches(st *qstate, queries []*relstore.ConjunctiveQuery, k, workers int, tr *obs.Trace) (*relstore.UnionResult, error) {
	prov := make([]string, len(queries))
	for i, cq := range queries {
		prov[i] = cq.Signature()
	}
	if q.opts.TopKPrune && !q.opts.MaterialisedExec {
		// Serial by design: whether branch i can be skipped depends on the
		// rows branches 0..i-1 produced. One execSem slot covers the run.
		// Planning is interleaved with execution here (branches are planned
		// lazily, skipped ones never), so the whole run traces as execute.
		texec := tr.Now()
		st.execSem <- struct{}{}
		defer func() { <-st.execSem }()
		result, tkStats, err := relstore.ExecuteTopKUnion(st.cat, queries, k, prov)
		tr.Record(obs.StageExecute, texec)
		if err != nil {
			return nil, err
		}
		q.addPlanStats(tkStats.Plan)
		q.countTopK(tkStats)
		return result, nil
	}
	results := make([]*relstore.ResultSet, len(queries))
	texec := tr.Now()
	if !q.opts.PlannerOff && !q.opts.MaterialisedExec {
		// Plan the batch as a unit: join orders are chosen per branch by
		// estimated cardinality, and join subtrees shared across branches
		// execute once through the per-materialisation subplan cache —
		// concurrent branches coalesce on the cached subplan.
		tplan := tr.Now()
		bp, err := relstore.PlanBatch(st.cat, queries)
		tr.Record(obs.StagePlan, tplan)
		if err != nil {
			return nil, err
		}
		texec = tr.Now()
		err = runIndexed(len(queries), workers, func(i int) error {
			st.execSem <- struct{}{}
			defer func() { <-st.execSem }()
			rs, err := bp.Execute(i)
			if err != nil {
				return err
			}
			results[i] = rs
			return nil
		})
		if err != nil {
			return nil, err
		}
		q.addPlanStats(bp.Stats())
	} else {
		err := runIndexed(len(queries), workers, func(i int) error {
			st.execSem <- struct{}{}
			defer func() { <-st.execSem }()
			rs, err := relstore.Execute(st.cat, queries[i])
			if err != nil {
				return err
			}
			results[i] = rs
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	branches := make([]relstore.Branch, len(queries))
	for i, cq := range queries {
		branches[i] = relstore.Branch{
			Result:     results[i],
			Cost:       cq.Cost,
			Provenance: prov[i],
		}
	}
	res := relstore.DisjointUnion(branches)
	tr.Record(obs.StageExecute, texec)
	return res, nil
}

// planOverlay is the plan phase of materialisation: top-k Steiner trees
// over the base∪overlay view, pruning, concurrent tree→query translation
// (results collected by tree index), and the two order-sensitive
// post-passes run serially in tree-cost order — signature deduplication and
// the §2.2 output-schema alignment — so the produced query list is
// deterministic regardless of parallelism.
func (q *Q) planOverlay(st *qstate, ov *searchgraph.Overlay, terminals []steiner.NodeID, k, workers int, tr *obs.Trace) ([]steiner.Tree, []*relstore.ConjunctiveQuery, error) {
	tsteiner := tr.Now()
	trees := q.topKTrees(ov, terminals, k)
	// Trees whose only way to connect the keywords runs through a disabled
	// edge (a mapping edge, or a legacy persisted keyword edge) are not
	// real answers.
	{
		kept := trees[:0]
		for _, t := range trees {
			if t.Cost < searchgraph.DisabledEdgeCost {
				kept = append(kept, t)
			}
		}
		trees = kept
	}
	// Prune trees using over-threshold association edges, if configured.
	if q.opts.AssocCostThreshold > 0 {
		kept := trees[:0]
		for _, t := range trees {
			if !q.treeUsesExpensiveAssoc(ov, t) {
				kept = append(kept, t)
			}
		}
		trees = kept
	}
	tr.Record(obs.StageSteiner, tsteiner)

	// Translate every tree concurrently; cqs is indexed by tree.
	ttrans := tr.Now()
	cqs := make([]*relstore.ConjunctiveQuery, len(trees))
	err := runIndexed(len(trees), workers, func(i int) error {
		cq, err := treeToQuery(st, ov, trees[i])
		if err != nil {
			return err
		}
		cqs[i] = cq
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Deterministic post-passes, in tree-cost order.
	var queries []*relstore.ConjunctiveQuery
	sigs := make(map[string]bool)
	for _, cq := range cqs {
		if sigs[cq.Signature()] {
			continue // equivalent query from a different tree
		}
		sigs[cq.Signature()] = true
		queries = append(queries, cq)
	}
	outputSchema := make(map[string]bool) // QA of §2.2
	for _, cq := range queries {
		q.alignOutputColumns(st, cq, outputSchema)
	}
	tr.Record(obs.StageTranslate, ttrans)
	return trees, queries, nil
}

// topKTrees is the one place core runs a top-k Steiner search (view
// planning and the deeper feedback pages alike). It is the exact search
// unless Options.UseApproxSteiner asks for the approximation or the keyword
// set is beyond what the exact search accepts — its state space is
// exponential in the terminals — in which case the approximation answers
// and the routing is counted. The exact search's work goes to the registry.
func (q *Q) topKTrees(ov *searchgraph.Overlay, terminals []steiner.NodeID, k int) []steiner.Tree {
	m := q.metrics
	approx := q.opts.UseApproxSteiner
	if !approx && len(terminals) > steiner.MaxExactTerminals {
		m.steinerApproxRouted.Inc()
		approx = true
	}
	if approx {
		return steiner.ApproxTopKSteinerOn(ov.View(), terminals, k)
	}
	trees, st := steiner.TopKSteinerStats(ov.View(), terminals, k)
	m.steinerPops.Add(int64(st.Pops))
	m.steinerPruned.Add(int64(st.Pruned))
	m.steinerBoundPruned.Add(int64(st.BoundPruned))
	if st.Truncated {
		m.steinerTruncated.Inc()
	}
	return trees
}

func (q *Q) treeUsesExpensiveAssoc(ov *searchgraph.Overlay, t steiner.Tree) bool {
	for _, eid := range t.Edges {
		e := ov.Edge(eid)
		if e.Kind == searchgraph.EdgeAssociation && ov.Cost(eid) > q.opts.AssocCostThreshold {
			return true
		}
	}
	return false
}

// Refresh rematerialises every persistent view against the current builder
// state (after weight updates or new alignments). It is a writer
// operation: the state is published first, then the views rematerialise
// across the bounded worker pool, each against its own fresh overlay of
// the new generation, and each swaps its materialisation in atomically.
// Views are independent, so the fan-out leaves every view byte-identical
// to a serial refresh.
func (q *Q) Refresh() error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	return q.refreshLocked()
}

func (q *Q) refreshLocked() error {
	st := q.publishLocked()
	views := q.Views()
	// Each view rematerialises through the cache: views sharing a keyword
	// sequence share one materialisation of the new generation (the refresh
	// fan-out coalesces on the in-flight compute), and a query racing the
	// refresh at the same epoch reuses it too.
	return runIndexed(len(views), st.parallelism, func(i int) error {
		mat, err := q.materializeCached(st, views[i].Keywords, views[i].K, 0, nil)
		if err != nil {
			return err
		}
		views[i].mat.Store(mat)
		return nil
	})
}

// TreeQuery converts a Steiner tree over the builder search graph into a
// conjunctive query. It is the exported form of the view pipeline's
// tree-to-query translation, used by the mediated-schema adapter and by
// tools that want to inspect or execute a tree directly. Writer-side: the
// tree must reference builder-graph ids (not a query overlay's).
func (q *Q) TreeQuery(t steiner.Tree) (*relstore.ConjunctiveQuery, error) {
	snap := q.Graph.Snapshot()
	st := &qstate{graph: snap, cat: q.Catalog, corpus: q.corpus}
	return treeToQuery(st, snap.NewOverlay(), t)
}

// treeToQuery converts a Steiner tree over the query overlay into a
// conjunctive query (paper §2.2): relation nodes (and relations reached by
// zero-cost edges from attribute/value nodes) become atoms; foreign-key and
// association edges become join conditions; keyword→value edges become
// selection conditions; attribute and value nodes drive the projection.
func treeToQuery(st *qstate, ov *searchgraph.Overlay, t steiner.Tree) (*relstore.ConjunctiveQuery, error) {
	cq := &relstore.ConjunctiveQuery{Cost: t.Cost}
	alias := make(map[string]string) // relation -> alias

	ensureAtom := func(rel string) string {
		if a, ok := alias[rel]; ok {
			return a
		}
		a := fmt.Sprintf("t%d", len(alias))
		alias[rel] = a
		cq.Atoms = append(cq.Atoms, relstore.Atom{Relation: rel, Alias: a})
		return a
	}

	// Atoms from every non-keyword node in the tree.
	for _, nid := range t.Nodes {
		n := ov.Node(nid)
		switch n.Kind {
		case searchgraph.KindRelation:
			ensureAtom(n.Rel)
		case searchgraph.KindAttribute, searchgraph.KindValue:
			ensureAtom(n.Ref.Relation)
		}
	}

	// Conditions from edges.
	for _, eid := range t.Edges {
		e := ov.Edge(eid)
		switch e.Kind {
		case searchgraph.EdgeForeignKey, searchgraph.EdgeAssociation:
			la := ensureAtom(e.A.Relation)
			ra := ensureAtom(e.B.Relation)
			cq.Joins = append(cq.Joins, relstore.JoinCond{
				LeftAlias: la, LeftAttr: e.A.Attr,
				RightAlias: ra, RightAttr: e.B.Attr,
			})
		case searchgraph.EdgeKeyword:
			u, vEnd := ov.Endpoints(eid)
			target := ov.Node(u)
			if target.Kind == searchgraph.KindKeyword {
				target = ov.Node(vEnd)
			}
			if target.Kind == searchgraph.KindValue {
				a := ensureAtom(target.Ref.Relation)
				cq.Selects = append(cq.Selects, relstore.SelCond{
					Alias: a, Attr: target.Ref.Attr, Op: relstore.OpEq, Value: target.Value,
				})
			}
			// Keyword→attribute/relation matches add no condition; the
			// matched element already anchors the atom set.
		}
	}
	if len(cq.Atoms) == 0 {
		return nil, fmt.Errorf("core: tree %s touches no relations", t.Key())
	}
	// Project every attribute of every atom (full tuples, as the paper's
	// example outputs show). Output labels must be unique within one query;
	// when a second relation carries an already-used attribute name, it
	// gets a relation-qualified label, which the outer union may later
	// merge with compatible columns.
	nameUsed := make(map[string]bool)
	for _, atom := range cq.Atoms {
		rel := st.cat.Relation(atom.Relation)
		if rel == nil {
			continue
		}
		for _, a := range rel.Attributes {
			as := a.Name
			if nameUsed[as] {
				as = relationShortName(atom.Relation) + "_" + a.Name
			}
			for nameUsed[as] {
				as = "_" + as
			}
			nameUsed[as] = true
			cq.Project = append(cq.Project, relstore.ProjCol{Alias: atom.Alias, Attr: a.Name, As: as})
		}
	}
	// Deterministic condition order.
	sort.Slice(cq.Joins, func(i, j int) bool {
		a, b := cq.Joins[i], cq.Joins[j]
		return a.LeftAlias+a.LeftAttr+a.RightAlias+a.RightAttr < b.LeftAlias+b.LeftAttr+b.RightAlias+b.RightAttr
	})
	sort.Slice(cq.Selects, func(i, j int) bool {
		a, b := cq.Selects[i], cq.Selects[j]
		return a.Alias+a.Attr+a.Value < b.Alias+b.Attr+b.Value
	})
	return cq, nil
}

// relationShortName strips the source qualifier: "ip.entry" -> "entry".
func relationShortName(qualified string) string {
	if i := strings.Index(qualified, "."); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}

// alignOutputColumns implements the output-schema unification of §2.2: for
// each projected attribute a of this query, if a low-cost association edge
// links a's node to an attribute whose label already appears in the unified
// output schema QA, rename a to that label (unless this query already
// outputs it); otherwise a joins QA under its own name. Associations are
// base edges, so the lookup reads the frozen snapshot directly.
func (q *Q) alignOutputColumns(st *qstate, cq *relstore.ConjunctiveQuery, outputSchema map[string]bool) {
	aliasRel := make(map[string]string, len(cq.Atoms))
	for _, a := range cq.Atoms {
		aliasRel[a.Alias] = a.Relation
	}
	current := make(map[string]bool, len(cq.Project))
	for _, p := range cq.Project {
		current[p.As] = true
	}
	for i, p := range cq.Project {
		if outputSchema[p.As] {
			continue // already unified under its own name
		}
		ref := relstore.AttrRef{Relation: aliasRel[p.Alias], Attr: p.Attr}
		if label, ok := q.compatibleOutputLabel(st, ref, outputSchema); ok && !current[label] {
			delete(current, p.As)
			cq.Project[i].As = label
			current[label] = true
		}
	}
	for _, p := range cq.Project {
		outputSchema[p.As] = true
	}
}

// compatibleOutputLabel finds an attribute a' connected to ref by an
// association edge of cost below the column-alignment threshold whose label
// (attribute name) is already in the output schema.
func (q *Q) compatibleOutputLabel(st *qstate, ref relstore.AttrRef, outputSchema map[string]bool) (string, bool) {
	nid := st.graph.LookupAttribute(ref)
	if nid < 0 {
		return "", false
	}
	for _, eid := range st.graph.Base().Incident(nid) {
		e := st.graph.Edge(eid)
		if e.Kind != searchgraph.EdgeAssociation {
			continue
		}
		if st.graph.Cost(eid) > q.opts.ColumnAlignThreshold {
			continue
		}
		other := e.A
		if other == ref {
			other = e.B
		}
		if outputSchema[other.Attr] {
			return other.Attr, true
		}
	}
	return "", false
}
