package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"qint/internal/obs"
	"qint/internal/pool"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// View is a persistent keyword-search view (paper §2.3): the definition
// (keywords, k) plus its current materialisation (top-k query trees, their
// conjunctive queries and the top k rows of their ranked union). Views are
// refreshed whenever search-graph maintenance changes costs or topology.
//
// A view is read through Current, one atomic load that returns a coherent,
// immutable Materialization; a concurrent refresh builds the next one aside
// and publishes it with a pointer store. ID, Keywords and K are immutable
// once Query returns.
type View struct {
	// ID names a persistent view for its lifetime, across Close/Open and
	// Save/Load: Q hands out IDs in creation order and never reuses one.
	// An ephemeral view's ID is -1.
	ID       int64
	Keywords []string
	K        int

	mat atomic.Pointer[viewMat]
}

// viewMat is one immutable materialisation of a view: everything computed
// from one published state generation. Its trees and queries reference node
// and edge ids of its own overlay (ov), which extends the generation's
// graph snapshot, and its column lookups read the generation's catalog —
// so provenance stays resolvable for explain and feedback for as long as
// the materialisation is held. It keeps the catalog, not the qstate, so a
// held materialisation never pins its generation's query caches.
type viewMat struct {
	epoch     uint64
	k         int // the k it was computed for, part of its cache key
	cat       *relstore.Catalog
	ov        *searchgraph.Overlay
	terminals []steiner.NodeID

	trees   []steiner.Tree
	queries []*relstore.ConjunctiveQuery
	// queryTree[i] indexes the tree whose translation produced queries[i]
	// (the first tree of that query's signature): feedback on a row goes
	// back to its tree through it.
	queryTree []int
	result    *relstore.UnionResult
	alpha     float64

	// served and rendered memoise the wire bytes of result (see
	// AppendRendered): served is set by the first render, rendered holds
	// the bytes kept from the second. They are the only fields written
	// after construction, and only atomically.
	served   atomic.Bool
	rendered atomic.Pointer[[]byte]
}

// treeOf returns the tree behind a result row's branch: the first tree
// whose translation produced queries[branch].
func (m *viewMat) treeOf(branch int) (steiner.Tree, error) {
	if branch < 0 || branch >= len(m.queryTree) {
		return steiner.Tree{}, fmt.Errorf("core: branch %d out of range", branch)
	}
	return m.trees[m.queryTree[branch]], nil
}

// Materialization is one coherent, immutable materialisation of a view:
// everything the view computed from a single published state generation
// for its k. Tree and row ids mean something only against the
// materialisation they were read from, so the calls that resolve them
// (Explain, KBestTrees, FeedbackFavorTree, FeedbackPreferTrees,
// NeighborhoodRelations) take the Materialization the caller read and act
// on its overlay, whatever the view has been refreshed to since.
type Materialization struct {
	Epoch   uint64
	K       int
	Trees   []steiner.Tree
	Queries []*relstore.ConjunctiveQuery
	Result  *relstore.UnionResult
	Alpha   float64

	m *viewMat
}

// Current returns the view's current materialisation (a single atomic
// load). Its Node and Edge methods resolve the ids of its trees against its
// own overlay.
func (v *View) Current() Materialization {
	m := v.mat.Load()
	if m == nil {
		return Materialization{}
	}
	return Materialization{
		Epoch:   m.epoch,
		K:       m.k,
		Trees:   m.trees,
		Queries: m.queries,
		Result:  m.result,
		Alpha:   m.alpha,
		m:       m,
	}
}

// AppendRendered appends the rendering of m.Result to dst and returns the
// extended slice. render appends a rendering of the result it is given to
// its first argument, or returns nil to refuse it; a refusal is returned
// as nil and nothing is kept. Core never learns the format: render is taken
// to be a pure function of the result, so the bytes rendered on the second
// call for one materialisation are kept (an exact-size copy, installed
// once) and every later call appends them without rendering. A first
// render keeps nothing, so a result read once costs no copy. The kept bytes
// live and die with the materialisation, and with the generation's caches
// that hold it. A Materialization not returned by Current keeps nothing.
func (m Materialization) AppendRendered(dst []byte, render func([]byte, *relstore.UnionResult) []byte) []byte {
	vm := m.m
	if vm == nil {
		return render(dst, m.Result)
	}
	if b := vm.rendered.Load(); b != nil {
		return append(dst, *b...)
	}
	start := len(dst)
	dst = render(dst, vm.result)
	if dst != nil && vm.served.Swap(true) {
		kept := slices.Clone(dst[start:])
		vm.rendered.CompareAndSwap(nil, &kept)
	}
	return dst
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

// Request is one keyword query. Keywords are taken verbatim (ParseKeywords
// splits a query string; keywords containing quotes or spaces pass through
// untouched) and are retained by the view, so the caller must not modify the
// slice afterwards; there are at most steiner.MaxExactTerminals of them,
// repeats included (ErrTooManyKeywords). K bounds the view's answer count
// (<= 0: the paper's k = 5). Ephemeral computes the answers
// without registering the view. Trace, when non-nil, receives the query's
// stage breakdown (cache lookup, expansion, Steiner search, translation,
// planning, execution, materialisation) and its totals are folded into the
// qint_query_stage_* metric families; a nil Trace costs one nil check per
// stage and no clock reads.
type Request struct {
	Keywords  []string
	K         int
	Ephemeral bool
	Trace     *obs.Trace
}

// ErrViewLimit is returned by a persistent Query when the view registry
// already holds Options.MaxViews views.
var ErrViewLimit = errors.New("core: view registry full")

// Query expands the request's keywords into a private query-graph overlay
// over the current published snapshot, computes the top-k Steiner trees,
// generates and executes their conjunctive queries, and unions the answers
// into a ranked view. Unless the request is ephemeral the view is
// persistent: it gets the next view ID and is retained for refresh on
// future search-graph maintenance, up to Options.MaxViews views. The
// answers are read through the view's Current materialisation.
//
// An ephemeral view carries its answers (computed through the same
// epoch-keyed cache, so a hot keyword stream is still near-free) but never
// participates in refreshes or VIEWBASEDALIGNER neighbourhoods and holds no
// reference from Q — a storm of ephemeral queries leaves the engine's
// footprint bounded by the materialisation cache's LRU capacity, and a
// caller that keeps one keeps its state generation alive. Its ID is -1.
//
// Query acquires no graph-wide lock: it works entirely against the state
// generation current at its start, so it runs concurrently with other
// queries AND with writers. A registration or feedback update committed
// after the query starts is not visible to it; the refresh that ends the
// next write brings a persistent view up to date. Repeated
// queries are served from the materialisation cache: two views with the
// same keyword sequence and k at the same published epoch share one
// immutable materialisation (and N concurrent identical cold queries
// compute it once — see cache.go), with answers byte-identical to an
// uncached run.
func (q *Q) Query(r Request) (*View, error) {
	if err := checkKeywords(r.Keywords); err != nil {
		return nil, err
	}
	// Cheap pre-check so a query storm at the cap fails before engine work;
	// the registration below re-checks authoritatively.
	if !r.Ephemeral && q.atViewLimit() {
		return nil, ErrViewLimit
	}
	k := r.K
	if k <= 0 {
		k = defaultK
	}
	m := q.metrics
	m.queries.Inc()
	mat, err := q.materializeCached(q.state(), r.Keywords, k, nil, r.Trace)
	q.observeTrace(r.Trace)
	if err != nil {
		m.queryErrors.Inc()
		return nil, err
	}
	v := &View{ID: -1, Keywords: r.Keywords, K: k}
	v.mat.Store(mat)
	if r.Ephemeral {
		return v, nil
	}
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	if len(q.views) >= q.opts.MaxViews {
		return nil, ErrViewLimit
	}
	v.ID = q.nextViewID
	q.nextViewID++
	q.views = append(q.views, v)
	return v, nil
}

var errEmptyQuery = errors.New("core: empty keyword query")

// ErrTooManyKeywords is returned by a Query with more keywords than the
// exact Steiner search accepts (steiner.MaxExactTerminals, one terminal per
// keyword).
var ErrTooManyKeywords = fmt.Errorf("core: a query carries at most %d keywords", steiner.MaxExactTerminals)

// checkKeywords refuses a keyword list no view is built over: an empty one,
// or one longer than the exact search accepts.
func checkKeywords(kws []string) error {
	switch {
	case len(kws) == 0:
		return errEmptyQuery
	case len(kws) > steiner.MaxExactTerminals:
		return fmt.Errorf("%w, got %d", ErrTooManyKeywords, len(kws))
	}
	return nil
}

// expandKeywords expands a keyword list into a fresh overlay of st, one
// terminal per keyword in list order (a repeated keyword gets the same
// node). Materialisation and the VIEWBASEDALIGNER both expand through it.
func (q *Q) expandKeywords(st *qstate, keywords []string) (*searchgraph.Overlay, []steiner.NodeID) {
	ov := st.graph.NewOverlay()
	terminals := make([]steiner.NodeID, 0, len(keywords))
	for _, kw := range keywords {
		terminals = append(terminals, q.expandKeyword(st, ov, kw))
	}
	return ov, terminals
}

// expandKeyword adds one keyword's query-graph expansion to the overlay
// (paper §2.2): similarity edges to matching schema elements via tf-idf,
// and lazily-materialised value nodes for matching data values. The
// expansion is a pure function of the state generation — it writes only to
// the overlay, never to the shared graph.
func (q *Q) expandKeyword(st *qstate, ov *searchgraph.Overlay, kw string) steiner.NodeID {
	kwNode := ov.KeywordNode(kw)

	// Metadata matches: attributes and relations by tf-idf cosine.
	for _, m := range st.corpus.TopMatches(kw, matchThreshold, maxMatchesPerKeyword) {
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
// private or frozen data, so no lock is needed. The execute phase runs the
// branch queries serially in tree-cost order into the ranked union, stopping
// at the view's top k (executeBranches), so the result is byte-identical at
// any engine width.
//
// The returned viewMat is immutable (its overlay is never mutated after
// this function returns), so the materialisation cache can hand one result
// to any number of views and concurrent readers; callers go through
// materializeCached. prev, when a refresh passes the view's current
// materialisation, only gives the search a limit (topKTrees): the answer is
// the same without it, and the result keeps no pointer to it.
//
// tr, when non-nil, gets one mark at the end of each pipeline stage
// (expand, steiner, translate, plan, execute, materialize); a nil trace
// costs one nil check per stage and no clock reads.
func (q *Q) materializeAt(st *qstate, keywords []string, k int, prev *viewMat, tr *obs.Trace) (*viewMat, error) {
	ov, terminals := q.expandKeywords(st, keywords)
	tr.Mark(obs.StageExpand)
	trees, queries, queryTree, err := q.planOverlay(st, ov, terminals, k, prev, tr)
	if err != nil {
		return nil, err
	}
	result, err := q.executeBranches(st, queries, k, tr)
	if err != nil {
		return nil, err
	}
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
		k:         k,
		cat:       st.cat,
		ov:        ov,
		terminals: terminals,
		trees:     trees,
		queries:   queries,
		queryTree: queryTree,
		result:    result,
		alpha:     alpha,
	}
	tr.Mark(obs.StageMaterialize)
	return m, nil
}

// executeBranches is the plan and execute phases of materialisation. The
// branch queries (tree-cost order) are planned as a unit (relstore.PlanBatch),
// each branch's joins in the planner's structural order: a filtered atom
// first, then connected atoms before any cross product, filtered before
// unfiltered, lower index first. Execution then streams the branches, in
// cost order, into the ranked union and stops at the view's top k: once k
// collected rows have cost at or below a branch's cost, that branch is never
// executed (union rank is (cost, branch) and all of a branch's rows share
// its cost). The result holds exactly the view's top-k rows — fewer if the
// branches yield fewer — and is byte-identical to the full disjoint union's
// TopK(k) prefix.
func (q *Q) executeBranches(st *qstate, queries []*relstore.ConjunctiveQuery, k int, tr *obs.Trace) (*relstore.UnionResult, error) {
	prov := make([]string, len(queries))
	for i, cq := range queries {
		prov[i] = cq.Signature()
	}
	bp, err := relstore.PlanBatch(st.cat, queries)
	tr.Mark(obs.StagePlan)
	if err != nil {
		return nil, err
	}
	// Serial by design: whether branch i runs depends on the rows branches
	// 0..i-1 produced.
	result, stats, err := bp.TopKUnion(k, prov)
	tr.Mark(obs.StageExecute)
	if err != nil {
		return nil, err
	}
	q.metrics.planBranchesPlanned.Add(int64(len(queries)))
	q.countTopK(stats)
	return result, nil
}

// planOverlay is the plan phase of materialisation: top-k Steiner trees
// over the base∪overlay view, then one serial pass in tree-cost order:
// tree→query translation with signature deduplication, and the §2.2
// output-schema alignment. The produced query list is a function of the
// trees alone; queryTree[i] is the index of the tree queries[i] came from.
func (q *Q) planOverlay(st *qstate, ov *searchgraph.Overlay, terminals []steiner.NodeID, k int, prev *viewMat, tr *obs.Trace) (trees []steiner.Tree, queries []*relstore.ConjunctiveQuery, queryTree []int, err error) {
	trees = q.topKTrees(ov, terminals, k, carriedLimit(ov, prev, k), k)
	tr.Mark(obs.StageSteiner)

	// Translate the trees in cost order. A tree takes a few microseconds,
	// less than handing it to another goroutine would.
	sigs := make(map[string]bool)
	queryTree = make([]int, 0, len(trees))
	for i, t := range trees {
		cq, err := treeToQuery(st.cat, ov, t)
		if err != nil {
			return nil, nil, nil, err
		}
		if sigs[cq.Signature()] {
			continue // equivalent query from a different tree
		}
		sigs[cq.Signature()] = true
		queries = append(queries, cq)
		queryTree = append(queryTree, i)
	}
	outputSchema := make(map[string]bool) // QA of §2.2
	for _, cq := range queries {
		q.alignOutputColumns(st, cq, outputSchema)
	}
	tr.Mark(obs.StageTranslate)
	return trees, queries, queryTree, nil
}

// topKTrees is the one place core runs a top-k Steiner search (view
// planning and the feedback pages alike). One distinct terminal — a
// keyword, perhaps repeated, since the overlay gives a repeated keyword the
// same node — is answered by its matches (singleKeywordTrees); more go to
// the exact search, whose work goes to the registry. limit is the one its
// caller computed, math.Inf(1) for none: a refresh passes carriedLimit, a
// feedback page its view's k-th cost (kBestOf). The search under it
// returns the prefix of the unlimited answer that fits under it
// (steiner.TopKSteinerUnder), which the caller accepts when it holds at
// least need trees; a shorter one means the limit broke its promise, and
// the search runs again without it.
func (q *Q) topKTrees(ov *searchgraph.Overlay, terminals []steiner.NodeID, k int, limit float64, need int) []steiner.Tree {
	if !slices.ContainsFunc(terminals, func(t steiner.NodeID) bool { return t != terminals[0] }) {
		return singleKeywordTrees(ov, terminals[0], k)
	}
	trees := q.searchUnder(ov, terminals, k, limit)
	if !math.IsInf(limit, 1) {
		q.metrics.steinerLimited.Inc()
		if len(trees) < need {
			q.metrics.steinerReruns.Inc()
			trees = q.searchUnder(ov, terminals, k, math.Inf(1))
		}
	}
	return trees
}

// searchUnder is one exact search under limit, its work counted.
func (q *Q) searchUnder(ov *searchgraph.Overlay, terminals []steiner.NodeID, k int, limit float64) []steiner.Tree {
	m := q.metrics
	trees, st := steiner.TopKSteinerUnder(ov.View(), terminals, k, limit)
	m.steinerPops.Add(int64(st.Pops))
	m.steinerPruned.Add(int64(st.Pruned))
	m.steinerBoundPruned.Add(int64(st.BoundPruned))
	if st.Truncated {
		m.steinerTruncated.Inc()
	}
	return trees
}

// carriedLimit is the limit a refresh's search starts with: the largest
// cost of the previous materialisation's trees re-priced in ov. Those trees
// are trees of ov's generation too, so when there are k of them, k distinct
// trees fit under it, and the search prunes from its first pop instead of
// from when it has queued k complete trees. It is +Inf, no limit, when prev
// is nil, holds fewer than k trees, or has a tree that no longer maps (a
// keyword that stopped matching its target).
func carriedLimit(ov *searchgraph.Overlay, prev *viewMat, k int) float64 {
	if prev == nil || len(prev.trees) != k {
		return math.Inf(1)
	}
	limit := 0.0
	for _, t := range prev.trees {
		c, ok := ov.Reprice(prev.ov, t.Edges)
		if !ok {
			return math.Inf(1)
		}
		limit = max(limit, c)
	}
	return limit
}

// singleKeywordTrees answers a one-keyword query. The lone terminal is its
// own Steiner tree, but that tree has no edges and so no relation to
// translate; instead each of the keyword's k cheapest matches — its overlay
// edges ordered by (cost, edge id) — is a one-edge tree.
func singleKeywordTrees(ov *searchgraph.Overlay, kw steiner.NodeID, k int) []steiner.Tree {
	var edges []steiner.EdgeID
	for eid := steiner.EdgeID(ov.Snapshot().NumEdges()); int(eid) < ov.View().NumEdges(); eid++ {
		if u, v := ov.Endpoints(eid); u == kw || v == kw {
			edges = append(edges, eid)
		}
	}
	slices.SortFunc(edges, func(a, b steiner.EdgeID) int { return cmp.Or(cmp.Compare(ov.Cost(a), ov.Cost(b)), cmp.Compare(a, b)) })
	trees := make([]steiner.Tree, min(k, len(edges)))
	for i, eid := range edges[:len(trees)] {
		u, v := ov.Endpoints(eid)
		trees[i] = steiner.Tree{Cost: ov.Cost(eid), Edges: []steiner.EdgeID{eid}, Nodes: []steiner.NodeID{min(u, v), max(u, v)}}
	}
	return trees
}

// refreshLocked rematerialises every persistent view against a newly
// published generation st; commitLocked calls it after every write that
// changed anything, and restore once, for the views it restored. The
// views rematerialise across the worker pool (pool.Run), each against its
// own fresh overlay of st, and each swaps its materialisation in
// atomically. Views are independent, so the fan-out leaves every view
// byte-identical to a serial refresh. A view whose refresh fails keeps its
// previous materialisation; the lowest-index error, naming that view's
// keywords, is returned and every failure is counted.
//
// Each view's search starts with its previous answer's re-priced cost as
// its limit (carriedLimit), which changes its work, never its answer. The
// tests' uncached engines, the reference oracle's cold engines, reuse
// nothing from earlier generations and refresh with no limit, so the oracle
// compares limited refreshes against unlimited ones.
func (q *Q) refreshLocked(st *qstate) error {
	views := q.Views()
	// Each view rematerialises through the cache: views sharing a keyword
	// sequence share one materialisation of the new generation (the refresh
	// fan-out coalesces on the in-flight compute), and a query racing the
	// refresh at the same epoch reuses it too.
	return pool.Run(len(views), q.width, func(i int) error {
		var prev *viewMat
		if !q.uncached {
			prev = views[i].mat.Load()
		}
		mat, err := q.materializeCached(st, views[i].Keywords, views[i].K, prev, nil)
		if err != nil {
			q.metrics.refreshErrors.Inc()
			return fmt.Errorf("view %v: %w", views[i].Keywords, err)
		}
		views[i].mat.Store(mat)
		return nil
	})
}

// treeToQuery converts a Steiner tree over the query overlay into a
// conjunctive query (paper §2.2): relation nodes (and relations reached by
// zero-cost edges from attribute/value nodes) become atoms; foreign-key and
// association edges become join conditions; keyword→value edges become
// selection conditions; attribute and value nodes drive the projection.
func treeToQuery(cat *relstore.Catalog, ov *searchgraph.Overlay, t steiner.Tree) (*relstore.ConjunctiveQuery, error) {
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
					Alias: a, Attr: target.Ref.Attr, Value: target.Value,
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
		rel := cat.Relation(atom.Relation)
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
	for i, p := range cq.Project {
		if outputSchema[p.As] {
			continue // already unified under its own name
		}
		ref := relstore.AttrRef{Relation: aliasRel[p.Alias], Attr: p.Attr}
		if label, ok := q.compatibleOutputLabel(st, ref, outputSchema); ok && !projects(cq, label) {
			cq.Project[i].As = label
		}
	}
	for _, p := range cq.Project {
		outputSchema[p.As] = true
	}
}

// projects reports whether cq already outputs a column named as. A query
// projects a handful of columns, so a scan beats a set.
func projects(cq *relstore.ConjunctiveQuery, as string) bool {
	for _, p := range cq.Project {
		if p.As == as {
			return true
		}
	}
	return false
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
		if st.graph.Cost(eid) > columnAlignThreshold {
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
