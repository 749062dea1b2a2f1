package core

import (
	"fmt"
	"math"
	"sort"

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
	// ViewBased (Algorithm 2, VIEWBASEDALIGNER) compares only against
	// relations inside the α-cost neighbourhood of some view's keywords —
	// guaranteed to produce the same top-k view updates as Exhaustive.
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
	AttrComparisons  int
	AlignmentsAdded  int
	AlignmentsByPair map[string]float64 // "a~b" -> best confidence
}

// RegisterSource is Q's registration service (paper §3): the new source's
// tables enter the catalog and search graph, the chosen aligner strategy
// selects which existing relations to match against, every registered
// matcher proposes alignments, and the top-Y per attribute become weighted
// association edges. Views are refreshed afterwards so new results surface.
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
	if err := q.commitLocked(walRecord{Tables: wireTables(tables)}, err); err != nil {
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
		// The top-Y budget is applied PER RELATION PAIR here, so the edges
		// installed for a given (new relation, target) pair are a pure
		// function of that pair. This pool-independence is what makes
		// VIEWBASEDALIGNER's same-top-k guarantee exact: aligning a subset
		// of targets installs exactly the corresponding subset of the
		// edges EXHAUSTIVE would install.
		for _, m := range q.matchers {
			for _, newTable := range tables {
				for _, target := range fresh {
					cands := matcher.TopYPerAttribute(
						q.matchPair(m, newTable.Relation, target, report), topY)
					q.installEdges(m, cands, report)
				}
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
// views (Algorithm 2): a relation is a target iff its node — or one of its
// attributes' nodes — lies within cost α of every view keyword, where α is
// the view's k-th best result cost. A view that has NOT yet filled its k
// result slots cannot prune at all (any new result would enter the top-k),
// so its radius is unbounded. Each view's keywords are re-expanded into a
// fresh overlay over the in-progress state, so keyword matches into the new
// source participate in the distances.
func (q *Q) viewBasedTargetsLocked(existing []*relstore.Relation) []*relstore.Relation {
	st := q.unpublishedStateLocked()
	inNeighborhood := make(map[string]bool)
	for _, v := range q.Views() {
		mat := v.mat.Load()
		alpha := 0.0
		if mat != nil {
			alpha = mat.alpha
		}
		if mat == nil || mat.result == nil || len(mat.result.Rows) < v.K {
			alpha = math.Inf(1)
		}
		ov := st.graph.NewOverlay()
		terminals := make([]steiner.NodeID, 0, len(v.Keywords))
		for _, kw := range v.Keywords {
			terminals = append(terminals, q.expandKeyword(st, ov, kw))
		}
		nb := steiner.NeighborhoodIntersectOn(ov.View(), terminals, alpha)
		for nid := range nb {
			n := ov.Node(nid)
			switch n.Kind {
			case searchgraph.KindRelation:
				inNeighborhood[n.Rel] = true
			case searchgraph.KindAttribute, searchgraph.KindValue:
				inNeighborhood[n.Ref.Relation] = true
			}
		}
	}
	var out []*relstore.Relation
	for _, rel := range existing {
		if inNeighborhood[rel.QualifiedName()] {
			out = append(out, rel)
		}
	}
	return out
}

// preferentialTargets implements Algorithm 3: existing relations are ranked
// by a vertex-cost prior — here the learned relation-authoritativeness
// weights ("rel:<name>" features; lower weight = preferred, mirroring the
// paper's estimation of P from feedback-learned feature weights) — and only
// the best preferentialBudget relations are compared.
func (q *Q) preferentialTargets(existing []*relstore.Relation) []*relstore.Relation {
	w := q.graph.Weights()
	// Quantise the prior: learned weights carry float noise in their low
	// bits (map-ordered summation in the updates), and unrounded values
	// would break ranking ties nondeterministically.
	prior := func(rel *relstore.Relation) float64 {
		return math.Round(w["rel:"+rel.QualifiedName()]*1e9) / 1e9
	}
	ranked := make([]*relstore.Relation, len(existing))
	copy(ranked, existing)
	sort.SliceStable(ranked, func(i, j int) bool {
		wi, wj := prior(ranked[i]), prior(ranked[j])
		if wi != wj {
			return wi < wj
		}
		return ranked[i].QualifiedName() < ranked[j].QualifiedName()
	})
	if len(ranked) > preferentialBudget {
		ranked = ranked[:preferentialBudget]
	}
	return ranked
}

// matchPair runs one matcher on one (new relation, existing relation)
// pair, applies the value-overlap filter if configured, and returns the
// surviving candidate alignments (best-first). Work counters accumulate in
// Stats and the report.
func (q *Q) matchPair(m matcher.Matcher, newRel, target *relstore.Relation, report *RegisterReport) []matcher.Alignment {
	nAttrs := len(newRel.Attributes) * len(target.Attributes)
	q.Stats.columnComparisonsUnfiltered.Add(int64(nAttrs))

	allowed := func(relstore.AttrRef, relstore.AttrRef) bool { return true }
	if q.opts.ValueOverlapFilter {
		pairs := q.overlappingPairs(newRel, target)
		q.Stats.attrComparisons.Add(int64(len(pairs)))
		allowed = func(a, b relstore.AttrRef) bool {
			return pairs[[2]relstore.AttrRef{a, b}] || pairs[[2]relstore.AttrRef{b, a}]
		}
	} else {
		q.Stats.attrComparisons.Add(int64(nAttrs))
	}

	q.Stats.baseMatcherCalls.Add(1)
	report.MatcherCalls++
	var filtered []matcher.Alignment
	for _, al := range m.Match(q.catalog, newRel, target) {
		if allowed(al.A, al.B) {
			filtered = append(filtered, al)
		}
	}
	report.AttrComparisons = q.Stats.AttrComparisons()
	return filtered
}

// installAlignments keeps the top-Y candidates per attribute and installs
// them as weighted association edges. With mirror set, each alignment also
// counts against its B-side attribute's budget (the per-node accounting of
// Table 1, used for whole-catalog alignment); without it only the A side —
// the new source's attributes during registration — is budgeted. The
// endorsing matcher contributes its confidence bin; every other registered
// matcher contributes an absent marker, which a later endorsement by that
// matcher supersedes on merge.
func (q *Q) installAlignments(m matcher.Matcher, candidates []matcher.Alignment, report *RegisterReport, mirror bool) {
	mirrored := candidates
	if mirror {
		mirrored = make([]matcher.Alignment, 0, 2*len(candidates))
		mirrored = append(mirrored, candidates...)
		for _, al := range candidates {
			mirrored = append(mirrored, matcher.Alignment{A: al.B, B: al.A, Confidence: al.Confidence})
		}
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
		key := CanonicalPair(al.A.String(), al.B.String())
		if al.Confidence > report.AlignmentsByPair[key] {
			report.AlignmentsByPair[key] = al.Confidence
		}
	}
	report.AlignmentsAdded = len(report.AlignmentsByPair)
}

// overlappingPairs returns the attribute pairs between the two relations
// that share at least one distinct value (the content-index filter). The
// per-attribute overlap checks fan out across at most one worker per
// catalog shard — each check derives its value sets from the owning shard's
// cache — with the result map merged deterministically, so the filter's
// decisions are identical at any shard count.
func (q *Q) overlappingPairs(a, b *relstore.Relation) map[[2]relstore.AttrRef]bool {
	return q.catalog.OverlappingAttrPairs(a, b)
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
		q.installAlignments(m, candidates, report, true)
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

// NeighborhoodRelations exposes the α-cost neighbourhood relation set of a
// view (for tests and the qshell explain command), computed against the
// view's current materialisation.
func (q *Q) NeighborhoodRelations(v *View) []string {
	mat := v.mat.Load()
	if mat == nil {
		return nil
	}
	nb := steiner.NeighborhoodIntersectOn(mat.ov.View(), mat.terminals, mat.alpha)
	set := make(map[string]bool)
	for nid := range nb {
		n := mat.ov.Node(nid)
		switch n.Kind {
		case searchgraph.KindRelation:
			set[n.Rel] = true
		case searchgraph.KindAttribute, searchgraph.KindValue:
			set[n.Ref.Relation] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
