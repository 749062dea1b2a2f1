package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"qint/internal/learning"
	"qint/internal/matcher"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// AlignStrategy selects how a newly registered source is aligned against
// the existing search graph (paper §3.3).
type AlignStrategy int

const (
	// Exhaustive compares the new source against every existing relation.
	Exhaustive AlignStrategy = iota
	// ViewBased (Algorithm 2, VIEWBASEDALIGNER) compares only against the
	// relations some view's better answers could reach: those within α of
	// every keyword of a view, and those a tree cheaper than α could join
	// through an edge from the new source (addNeighborhood), re-checked
	// after each alignment round until no relation joins. Ranking fewer
	// candidates per round, each matcher keeps every alignment towards
	// those relations that it keeps under Exhaustive, and possibly more.
	// So every Exhaustive tree cheaper than a view's α exists, and with
	// one matcher at the same cost: each view's i-th tree below α costs no
	// more than under Exhaustive, and where ViewBased adds no edge that
	// Exhaustive lacks the views are equal. One exception, with a one-table
	// source: a tree that leaves the source into relations no keyword
	// reaches and comes back may be missed, but never a view's best tree.
	// With several matchers (qserver's and qshell's meta + MAD) an edge may
	// carry an endorsement Exhaustive ranked out, which prices it either
	// way, so no bound holds on the views' costs (internal/core/README.md).
	ViewBased
	// Preferential (Algorithm 3, PREFERENTIALALIGNER) compares against
	// relations in order of a vertex-cost prior (authoritativeness), up to
	// three relations (preferentialBudget). Cheaper still, but without the
	// same-answers guarantee.
	Preferential
)

// String names the strategy.
func (s AlignStrategy) String() string {
	switch s {
	case Exhaustive:
		return "EXHAUSTIVE"
	case ViewBased:
		return "VIEWBASEDALIGNER"
	default:
		return "PREFERENTIALALIGNER"
	}
}

// RegisterReport summarises one source registration.
type RegisterReport struct {
	Source           string
	NewRelations     []string
	TargetsCompared  []string
	MatcherCalls     int
	AttrComparisons  int // this registration's attribute comparisons only
	AlignmentsAdded  int
	AlignmentsByPair map[string]float64 // "a~b" -> best confidence
}

// RegisterSource is Q's registration service (paper §3): the new source's
// tables enter the catalog and search graph, the chosen aligner strategy
// selects which existing relations to match against, every registered
// matcher proposes alignments, and each matcher's top-Y per new attribute
// over the targets of an alignment round become weighted association
// edges. EXHAUSTIVE and PREFERENTIAL align in one round; VIEWBASED's
// fixpoint may take several, and it installs a superset of EXHAUSTIVE's
// edges towards the relations it compares, which hold every tree cheaper
// than a view's α (see ViewBased). Views are refreshed afterwards so new
// results surface.
//
// All tables must share one source name, which must be new to the catalog.
//
// The whole registration is one atomic write: it builds the next state
// generation aside (catalog, corpus and graph are copy-on-write) and
// publishes it in a single pointer swap at the end, so a concurrent query
// sees either the complete pre-registration world or the complete
// post-registration world — never a source whose tables exist but whose
// alignments do not. The WAL record carries the new tables and every
// association edge the alignment created, with final merged features;
// replay installs the edges verbatim and never re-runs the matchers.
func (q *Q) RegisterSource(tables []*relstore.Table, strategy AlignStrategy) (*RegisterReport, error) {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	report, err := q.registerLocked(tables, strategy)
	if err := q.commitLocked(walRecord{Tables: tables}, err); err != nil {
		return nil, err
	}
	return report, nil
}

func (q *Q) registerLocked(tables []*relstore.Table, strategy AlignStrategy) (*RegisterReport, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("core: RegisterSource with no tables")
	}
	source := tables[0].Relation.Source
	for _, t := range tables {
		if t.Relation.Source != source {
			return nil, fmt.Errorf("core: RegisterSource mixes sources %q and %q", source, t.Relation.Source)
		}
	}
	for _, s := range q.catalog.Sources() {
		if s == source {
			return nil, fmt.Errorf("core: source %q already registered", source)
		}
	}

	// Existing relations BEFORE this source joins.
	existing := q.catalog.Relations()

	if err := q.addTablesLocked(tables...); err != nil {
		return nil, err
	}
	// Target selection and alignment read the new tables' values.
	q.catalog.BuildValueIndex(q.width)

	report := &RegisterReport{Source: source, AlignmentsByPair: make(map[string]float64)}
	for _, t := range tables {
		report.NewRelations = append(report.NewRelations, t.Relation.QualifiedName())
	}

	// Target selection and the alignment fixpoint run against the
	// UNPUBLISHED next generation: keyword matches against the new source
	// must exist before target selection (a keyword hitting new data opens
	// paths from the view's terminals into — and through — the new source,
	// enlarging the true candidate neighbourhood), but concurrent queries
	// must not see the half-registered source. unpublishedStateLocked gives
	// the aligners a coherent snapshot of the work in progress without
	// publishing it.
	targets := q.selectTargetsLocked(existing, strategy)
	for _, rel := range targets {
		report.TargetsCompared = append(report.TargetsCompared, rel.QualifiedName())
	}

	// Align, re-checking the neighbourhood after each round: a new
	// association edge can shorten keyword distances and pull additional
	// relations inside the α radius (a tree may use several new alignments
	// chained through the new source), so VIEWBASEDALIGNER iterates to a
	// fixpoint. EXHAUSTIVE and PREFERENTIAL pick their targets once.
	alignedTargets := make(map[string]bool)
	for round := 0; ; round++ {
		var fresh []*relstore.Relation
		for _, rel := range targets {
			if !alignedTargets[rel.QualifiedName()] {
				alignedTargets[rel.QualifiedName()] = true
				fresh = append(fresh, rel)
			}
		}
		if len(fresh) == 0 {
			break
		}
		// The top-Y budget is per new attribute, per matcher, per round
		// (paper §3.2.3): each matcher's candidates for one new table are
		// pooled over the round's targets before the cut, so a new
		// attribute gains at most topY edges per matcher per round however
		// large the catalog. TopYPerAttribute is a stable sort over
		// candidates in target order, so an edge in EXHAUSTIVE's top-Y
		// whose target a VIEWBASEDALIGNER round compares is in that
		// round's top-Y too.
		for _, m := range q.matchers {
			for _, newTable := range tables {
				var cands []matcher.Alignment
				for _, target := range fresh {
					cands = append(cands, q.matchPair(m, newTable.Relation, target, report)...)
				}
				q.installEdges(m, matcher.TopYPerAttribute(cands, topY), report)
			}
		}
		if strategy != ViewBased {
			break
		}
		targets = q.selectTargetsLocked(existing, strategy)
	}
	report.TargetsCompared = report.TargetsCompared[:0]
	for _, rel := range existing {
		if alignedTargets[rel.QualifiedName()] {
			report.TargetsCompared = append(report.TargetsCompared, rel.QualifiedName())
		}
	}
	return report, nil
}

// selectTargetsLocked applies the alignment-search strategy to the
// pre-existing relations, against the current (possibly unpublished)
// builder state.
func (q *Q) selectTargetsLocked(existing []*relstore.Relation, strategy AlignStrategy) []*relstore.Relation {
	switch strategy {
	case ViewBased:
		return q.viewBasedTargetsLocked(existing)
	case Preferential:
		return q.preferentialTargets(existing)
	default:
		return existing
	}
}

// viewBasedTargetsLocked implements GETCOSTNEIGHBORHOOD over all persistent
// views (Algorithm 2): a relation is a target iff some view's
// addNeighborhood holds it. Each view's keywords are re-expanded into a
// fresh overlay over the in-progress state, so keyword matches into the new
// source, and the edges aligned so far, participate in the distances.
// Relations of the catalog that are not in existing are the new source's.
func (q *Q) viewBasedTargetsLocked(existing []*relstore.Relation) []*relstore.Relation {
	st := q.unpublishedStateLocked()
	isNew := make(map[string]bool)
	for _, rel := range st.cat.Relations() {
		isNew[rel.QualifiedName()] = true
	}
	for _, rel := range existing {
		delete(isNew, rel.QualifiedName())
	}
	least := q.leastAssociationCostLocked(st.graph.Weights(), isNew)
	inNeighborhood := make(map[string]bool)
	for _, v := range q.Views() {
		ov, terminals := q.expandKeywords(st, v.Keywords)
		addNeighborhood(inNeighborhood, ov, terminals, v.mat.Load(), isNew, least)
	}
	var out []*relstore.Relation
	for _, rel := range existing {
		if inNeighborhood[rel.QualifiedName()] {
			out = append(out, rel)
		}
	}
	return out
}

// addNeighborhood adds to set the relations VIEWBASEDALIGNER compares on
// one view's behalf, from the distances d_t in ov from each of the view's
// terminals t, where α is the view's k-th best result cost (mat.alpha):
//
//   - the α-cost neighbourhood: the relations with a node (relation,
//     attribute or value) within α of every terminal;
//   - every relation that a tree cheaper than α could join through an
//     association edge from the new source (the relations isNew names)
//     that no round has aligned yet. Each such edge costs at least least.
//
// Let T be such a tree, its leaves terminals, and e = (n, r) one of its
// edges from a new attribute n to a relation r not compared yet. Remove
// all such edges from T; its parts are trees over aligned edges.
//
//  1. If r's part holds a terminal t, r's attributes lie within d_t(r) of
//     t, and a terminal t' on n's side of e reaches a new attribute
//     within β(t') = min(d_t'(new), d_t'(old) + least): directly, or
//     through its nearest old attribute and one more such edge. So
//     d_t(r) + least + β(t') < α for some t' ≠ t.
//  2. Otherwise r's part hangs between two or more such edges, and the
//     parts holding terminals reach new attributes directly (a part that
//     held r' and a terminal instead would be case 1 for r'); there are at
//     least two such parts, since T's leaves are terminals. So 2·least +
//     d_t(new) + d_t'(new) < α for the nearest terminal t and the
//     farthest t', and any relation could be r: all are targets. With a
//     one-table source this is left out, as it would compare every
//     relation for trees that are never a view's best: joining the two
//     new attributes inside their table instead costs less.
//
// The fixpoint in registerLocked re-applies both after each round, so at
// its end no tree cheaper than α uses an edge towards a relation left out,
// apart from case 2's with a one-table source. A view that has NOT yet
// filled its k result slots cannot prune at all (any new result would
// enter the top k), so its radius is unbounded.
func addNeighborhood(set map[string]bool, ov *searchgraph.Overlay, terminals []steiner.NodeID, mat *viewMat, isNew map[string]bool, least float64) {
	alpha := math.Inf(1)
	if mat != nil && mat.result != nil && len(mat.result.Rows) >= mat.k {
		alpha = mat.alpha
	}
	relOf := func(v int) (string, bool) {
		switch n := ov.Node(steiner.NodeID(v)); n.Kind {
		case searchgraph.KindRelation:
			return n.Rel, false
		case searchgraph.KindAttribute:
			return n.Ref.Relation, true
		case searchgraph.KindValue:
			return n.Ref.Relation, false
		}
		return "", false
	}
	nt := len(terminals)
	near := make(map[string][]float64) // per old relation, each terminal's distance to its attributes
	toNew, beta := make([]float64, nt), make([]float64, nt)
	far := steiner.DistanceRowsOn(ov.View(), terminals, alpha, func(i int, d []float64) {
		toNew[i] = math.Inf(1)
		toOld := math.Inf(1)
		for v, x := range d {
			if x >= alpha {
				continue
			}
			rel, attr := relOf(v)
			switch {
			case !attr: // association edges join attribute nodes
			case isNew[rel]:
				toNew[i] = min(toNew[i], x)
			default:
				toOld = min(toOld, x)
				ds := near[rel]
				if ds == nil {
					ds = make([]float64, nt)
					for j := range ds {
						ds[j] = math.Inf(1)
					}
					near[rel] = ds
				}
				ds[i] = min(ds[i], x)
			}
		}
		beta[i] = min(toNew[i], toOld+least)
	})
	all := false
	if nt >= 2 && len(isNew) >= 2 { // case 2, for a source of several tables
		byCost := slices.Sorted(slices.Values(toNew))
		all = below(2*least+byCost[0]+byCost[nt-1], alpha)
	}
	for v, x := range far {
		if all || x <= alpha {
			if rel, _ := relOf(v); rel != "" {
				set[rel] = true
			}
		}
	}
	for rel, ds := range near { // case 1
		for i, x := range ds {
			other := math.Inf(1)
			for j, b := range beta {
				if j != i {
					other = min(other, b)
				}
			}
			if below(x+least+other, alpha) {
				set[rel] = true
				break
			}
		}
	}
}

// below reports whether a lower bound on a tree's cost leaves room for
// the tree to cost less than alpha. Edge costs are multiples of 1e-9
// (searchgraph.quantiseCost), summed in different orders by a path and by
// a tree, so a cheaper tree is cheaper by about 1e-9.
func below(bound, alpha float64) bool { return bound < alpha-5e-10 }

// leastAssociationCostLocked bounds from below the cost of any association
// edge a registration of the new relations isNew names can install under
// weights w: AddAssociationEdge's own features at their least weights, and
// per registered matcher the cheaper of its absent marker and its cheapest
// confidence bin (mergeMatcherFeatures keeps exactly one of them), or in
// the RawConfidences ablation the negative parts of its rawmismatch and
// absent weights (a merge can keep both). With no matcher nothing can be
// aligned, and the bound is +Inf.
func (q *Q) leastAssociationCostLocked(w learning.Vector, isNew map[string]bool) float64 {
	if len(q.matchers) == 0 {
		return math.Inf(1)
	}
	rel, indicator := 0.0, 0.0
	for k, x := range w {
		switch {
		case strings.HasPrefix(k, "rel:"):
			rel = min(rel, x)
		case strings.HasPrefix(k, "edge:") && x < indicator:
			for name := range isNew { // the new source's pairs carry this indicator
				if strings.HasPrefix(k, "edge:"+name+".") || strings.Contains(k, "~"+name+".") {
					indicator = x
					break
				}
			}
		}
	}
	least := w["default"] + 2*rel + indicator
	for _, m := range q.matchers {
		absent := w["matcher:"+m.Name()+":absent"]
		if q.opts.RawConfidences {
			least += min(0, w["matcher:"+m.Name()+":rawmismatch"]) + min(0, absent)
			continue
		}
		c := absent
		for bin := range q.binner.NumBins() {
			c = min(c, w[fmt.Sprintf("matcher:%s:bin%d", m.Name(), bin)])
		}
		least += c
	}
	// An edge's cost is its feature sum rounded to 1e-9, floored at
	// MinEdgeCost (searchgraph.quantiseCost); rounding keeps the order.
	return max(searchgraph.MinEdgeCost, math.Round((least-1e-12)*1e9)/1e9)
}

// preferentialTargets implements Algorithm 3: existing relations are ranked
// by a vertex-cost prior — here the learned relation-authoritativeness
// weights ("rel:<name>" features; lower weight = preferred, mirroring the
// paper's estimation of P from feedback-learned feature weights) — and only
// the best preferentialBudget relations are compared.
func (q *Q) preferentialTargets(existing []*relstore.Relation) []*relstore.Relation {
	w := q.graph.Weights()
	// Each relation's name and prior once, not per comparison. Quantise the
	// prior: learned weights carry float noise in their low bits
	// (map-ordered summation in the updates), and unrounded values would
	// break ranking ties nondeterministically.
	type ranked struct {
		rel   *relstore.Relation
		name  string
		prior float64
	}
	rs := make([]ranked, len(existing))
	for i, rel := range existing {
		name := rel.QualifiedName()
		rs[i] = ranked{rel, name, math.Round(w["rel:"+name]*1e9) / 1e9}
	}
	slices.SortStableFunc(rs, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(a.prior, b.prior), strings.Compare(a.name, b.name))
	})
	out := make([]*relstore.Relation, min(len(rs), preferentialBudget))
	for i := range out {
		out[i] = rs[i].rel
	}
	return out
}

// matchPair runs one matcher on one (new relation, existing relation)
// pair, applies the value-overlap filter if configured, and returns the
// surviving candidate alignments (best-first). Work counters accumulate in
// Stats and the report.
func (q *Q) matchPair(m matcher.Matcher, newRel, target *relstore.Relation, report *RegisterReport) []matcher.Alignment {
	nAttrs := len(newRel.Attributes) * len(target.Attributes)
	q.Stats.columnComparisonsUnfiltered.Add(int64(nAttrs))

	allowed := func(relstore.AttrRef, relstore.AttrRef) bool { return true }
	compared := nAttrs
	if q.opts.ValueOverlapFilter {
		pairs := q.catalog.OverlappingAttrPairs(newRel, target)
		compared = len(pairs)
		allowed = func(a, b relstore.AttrRef) bool {
			return pairs[[2]relstore.AttrRef{a, b}] || pairs[[2]relstore.AttrRef{b, a}]
		}
	}
	q.Stats.attrComparisons.Add(int64(compared))
	report.AttrComparisons += compared

	q.Stats.baseMatcherCalls.Add(1)
	report.MatcherCalls++
	var filtered []matcher.Alignment
	for _, al := range m.Match(q.catalog, newRel, target) {
		if allowed(al.A, al.B) {
			filtered = append(filtered, al)
		}
	}
	return filtered
}

// installAlignments keeps the top-Y candidates per attribute and installs
// them as weighted association edges. Each alignment counts against the
// budgets of both its attributes (the per-node accounting of Table 1, for
// whole-catalog alignment). The endorsing matcher contributes its
// confidence bin; every other registered matcher contributes an absent
// marker, which a later endorsement by that matcher supersedes on merge.
func (q *Q) installAlignments(m matcher.Matcher, candidates []matcher.Alignment, report *RegisterReport) {
	mirrored := make([]matcher.Alignment, 0, 2*len(candidates))
	mirrored = append(mirrored, candidates...)
	for _, al := range candidates {
		mirrored = append(mirrored, matcher.Alignment{A: al.B, B: al.A, Confidence: al.Confidence})
	}
	q.installEdges(m, matcher.TopYPerAttribute(mirrored, topY), report)
}

// installEdges turns already-budgeted alignments into association edges.
func (q *Q) installEdges(m matcher.Matcher, aligns []matcher.Alignment, report *RegisterReport) {
	for _, al := range aligns {
		var feat learning.Vector
		if q.opts.RawConfidences {
			// Ablation mode: the matcher's real-valued mismatch enters the
			// cost directly under a single shared weight.
			feat = learning.Vector{"matcher:" + m.Name() + ":rawmismatch": 1 - al.Confidence}
		} else {
			feat = learning.Vector{q.binner.Feature(m.Name(), al.Confidence): 1}
		}
		for _, other := range q.matchers {
			if other.Name() != m.Name() {
				feat["matcher:"+other.Name()+":absent"] = 1
			}
		}
		q.associateLocked(al.A, al.B, feat)
		key := relstore.CanonicalPair(al.A, al.B)
		if al.Confidence > report.AlignmentsByPair[key] {
			report.AlignmentsByPair[key] = al.Confidence
		}
	}
	report.AlignmentsAdded = len(report.AlignmentsByPair)
}

// AlignAllPairs runs every registered matcher over every unordered pair of
// relations currently in the catalog, installing the top-Y association
// edges per attribute (globally, as in Table 1's "top-Y edges per node").
// This is the initial association-generation step of the §5.2 experiments,
// where the search graph starts with bare tables and the matchers must
// propose all alignments. Whole-catalog alignment can merge features into
// pre-existing edges; the WAL record carries every edge it touched.
func (q *Q) AlignAllPairs() (*RegisterReport, error) {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	report := &RegisterReport{AlignmentsByPair: make(map[string]float64)}
	rels := q.catalog.Relations()
	for _, m := range q.matchers {
		var candidates []matcher.Alignment
		for i := 0; i < len(rels); i++ {
			for j := i + 1; j < len(rels); j++ {
				candidates = append(candidates, q.matchPair(m, rels[i], rels[j], report)...)
			}
		}
		q.installAlignments(m, candidates, report)
	}
	if err := q.commitLocked(walRecord{}, nil); err != nil {
		return nil, err
	}
	return report, nil
}

// CountTargetComparisons reports, without running any matcher, how many
// pairwise column comparisons each strategy would perform to align a
// hypothetical new source with the given relations against the current
// graph. Used by the Figure 8 scaling experiment, where the synthetic
// relations carry unrealistic labels that are not worth matching for real.
func (q *Q) CountTargetComparisons(newRels []*relstore.Relation, strategy AlignStrategy) int {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	existing := q.catalog.Relations()
	// Exclude the new relations themselves if they are already registered.
	newSet := make(map[string]bool, len(newRels))
	for _, r := range newRels {
		newSet[r.QualifiedName()] = true
	}
	var pre []*relstore.Relation
	for _, r := range existing {
		if !newSet[r.QualifiedName()] {
			pre = append(pre, r)
		}
	}
	targets := q.selectTargetsLocked(pre, strategy)
	total := 0
	for _, nr := range newRels {
		for _, t := range targets {
			total += len(nr.Attributes) * len(t.Attributes)
		}
	}
	return total
}

// NeighborhoodRelations returns, sorted, the relations VIEWBASEDALIGNER
// would compare a new source with on the view's behalf in m
// (addNeighborhood, with no relation new yet), whose radius is unbounded
// while m holds fewer than its k answers. For qshell's neighborhood
// command and the examples.
func (q *Q) NeighborhoodRelations(m Materialization) []string {
	mat := m.m
	if mat == nil {
		return nil
	}
	q.writerMu.Lock()
	least := q.leastAssociationCostLocked(mat.ov.Snapshot().Weights(), nil)
	q.writerMu.Unlock()
	set := make(map[string]bool)
	addNeighborhood(set, mat.ov, mat.terminals, mat, nil, least)
	return slices.Sorted(maps.Keys(set))
}
