package core

import (
	"errors"
	"fmt"

	"qint/internal/learning"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
)

// ErrRowOutOfRange reports feedback naming a row the view's CURRENT
// materialisation does not have. This is not always a malformed request:
// a concurrent weight update rematerialises every view, so the index a
// client read moments ago can go stale — even a previously non-empty view
// can re-rank to fewer rows. Callers should re-read the view and resubmit
// against what it shows now (the HTTP layer maps this to 409 Conflict).
var ErrRowOutOfRange = errors.New("core: feedback row out of range")

// minLearnableCost is the floor Algorithm 4's positivity constraint aims
// for: after every update the cheapest learnable edge costs at least this.
const minLearnableCost = 0.01

// FeedbackKind classifies an annotation on one view answer (paper §4).
type FeedbackKind int

const (
	// FeedbackValid marks an answer as clearly correct: its originating
	// query is constrained to cost no more than the current top answer.
	FeedbackValid FeedbackKind = iota
	// FeedbackInvalid marks an answer as clearly implausible: every other
	// retained query is preferred over its originating query.
	FeedbackInvalid
)

// FeedbackRow applies feedback on the view answer at rowIdx of the view's
// current ranked result. Q generalises the tuple to the query tree that
// produced it via provenance, converts the annotation into MIRA margin
// constraints, updates the weight vector, re-enforces edge-cost positivity,
// and refreshes all views.
//
// Ordering semantics: the row index is interpreted against the view's
// CURRENT materialisation — the one whose rows the caller inspected. In
// normal operation every write refreshes every view, so the current
// materialisation always reflects the latest published state; a view
// created concurrently with a write may briefly trail by one generation,
// and its feedback is interpreted against what it actually shows (then the
// update's refresh brings it current).
func (q *Q) FeedbackRow(v *View, rowIdx int, kind FeedbackKind) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	mat := v.mat.Load()
	if mat == nil || mat.result == nil || rowIdx < 0 || rowIdx >= len(mat.result.Rows) {
		rows := 0
		if mat != nil && mat.result != nil {
			rows = len(mat.result.Rows)
		}
		return fmt.Errorf("%w: row %d, view currently has %d rows", ErrRowOutOfRange, rowIdx, rows)
	}
	branch := mat.result.Rows[rowIdx].Branch
	// Branch indexes mat.queries; recover the producing tree by matching
	// the query back to its tree position (queries and trees run in
	// parallel, minus signature-deduplicated trees).
	tree, err := treeForQuery(mat, branch)
	if err != nil {
		return err
	}
	switch kind {
	case FeedbackValid:
		return q.feedbackFavorLocked(mat, tree, v.K)
	default:
		// Prefer the best tree that is not the offending one.
		for _, t := range mat.trees {
			if t.Key() != tree.Key() {
				return q.feedbackFavorLocked(mat, t, v.K)
			}
		}
		return nil // nothing else to promote
	}
}

// treeForQuery resolves a branch index back to the Steiner tree whose
// translation produced it, by query signature.
func treeForQuery(mat *viewMat, branch int) (steiner.Tree, error) {
	if branch < 0 || branch >= len(mat.queries) {
		return steiner.Tree{}, fmt.Errorf("core: branch %d out of range", branch)
	}
	sig := mat.queries[branch].Signature()
	for _, t := range mat.trees {
		cq, err := treeToQuery(mat.st, mat.ov, t)
		if err != nil {
			continue
		}
		if cq.Signature() == sig {
			return t, nil
		}
	}
	return steiner.Tree{}, fmt.Errorf("core: no tree for branch %d", branch)
}

// FeedbackFavorTree is the core of Algorithm 4 (ONLINELEARNER): the user's
// feedback names a target tree Tr for the view's keyword set Sr; the k-best
// list B is recomputed under current weights, MIRA finds the minimal weight
// change under which Tr beats every T ∈ B by margin L(Tr, T), the default
// weight is shifted to keep all learnable edge costs positive, and views are
// refreshed under the new costs. The target tree must come from the view's
// current materialisation (Trees or KBestTrees).
func (q *Q) FeedbackFavorTree(v *View, target steiner.Tree) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	mat := v.mat.Load()
	if mat == nil {
		return fmt.Errorf("core: feedback on unmaterialised view")
	}
	return q.feedbackFavorLocked(mat, target, v.K)
}

func (q *Q) feedbackFavorLocked(mat *viewMat, target steiner.Tree, k int) error {
	return q.feedbackPreferLocked(mat, target, q.kBestOf(mat, k))
}

// FeedbackPreferTrees applies ranking feedback (paper §4: "tuple t_x should
// be scored higher than t_y"): the target tree is constrained to cost less
// than each tree in worse, by the structural-loss margin. Callers that know
// several answers are correct (a user may mark more than one answer valid)
// pass only the genuinely-worse trees, so good alternatives are not pushed
// away while promoting the target. All trees must come from the view's
// current materialisation (Trees or KBestTrees): their node and edge ids
// are resolved against its overlay.
func (q *Q) FeedbackPreferTrees(v *View, target steiner.Tree, worse []steiner.Tree) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	mat := v.mat.Load()
	if mat == nil {
		return fmt.Errorf("core: feedback on unmaterialised view")
	}
	return q.feedbackPreferLocked(mat, target, worse)
}

func (q *Q) feedbackPreferLocked(mat *viewMat, target steiner.Tree, worse []steiner.Tree) error {
	// Captured BEFORE the keyword-weight seeding below: the WAL logs the
	// complete effect of this feedback step as one weight-vector delta
	// (seeding + MIRA update), so replaying it against the pre-feedback
	// vector reproduces the post-feedback vector exactly — without
	// re-running MIRA, which would need the overlays and result sets.
	var entryWeights learning.Vector
	if q.persist != nil {
		entryWeights = q.Graph.Weights().Clone()
	}
	competitors := make([]learning.TreeExample, 0, len(worse))
	for _, t := range worse {
		competitors = append(competitors, treeExample(mat.ov, t))
	}
	// The per-edge keyword weights (w_2, w_3, … of Figure 3) live in
	// overlays until learning touches them: seed every live view's
	// keyword-edge features at the base value before the update — matching
	// the pre-overlay design, where every expanded keyword edge installed
	// its weight at query time — so the margin features and the positivity
	// constraints below price keyword edges from the same starting point.
	mats := q.liveMatsLocked(mat)
	for _, m := range mats {
		for _, e := range m.ov.KeywordEdges() {
			for feat := range e.Features {
				if feat != "mismatch" {
					q.Graph.EnsureWeight(feat, searchgraph.KwEdgeBaseWeight)
				}
			}
		}
	}
	// Algorithm 4 line 11: every learnable edge's cost stays positive. The
	// constraints are solved inside the same QP as the margins, so the
	// solver redistributes weight instead of driving one edge far negative
	// (which would otherwise demand a global offset that inflates every
	// edge alike and destroys the α-neighbourhood pruning of §3.3).
	w := q.mira.UpdateWithPositivity(
		q.Graph.Weights(), treeExample(mat.ov, target), competitors,
		q.learnableEdgeFeatures(mats), minLearnableCost)
	// Log-then-publish: the delta is durable before SetWeights installs the
	// new vector and refreshLocked publishes the regraded generation.
	if q.persist != nil {
		if d := searchgraph.DiffWeights(entryWeights, w); !d.Empty() {
			if err := q.logMutationLocked(walKindWeights, d); err != nil {
				return err
			}
		}
	}
	q.Graph.SetWeights(w)
	return q.refreshLocked()
}

// liveMatsLocked collects the current materialisation of every persistent
// view (creation order), ensuring primary is included even if its view was
// dropped from the registry.
func (q *Q) liveMatsLocked(primary *viewMat) []*viewMat {
	var mats []*viewMat
	seen := false
	for _, v := range q.Views() {
		if m := v.mat.Load(); m != nil {
			mats = append(mats, m)
			if m == primary {
				seen = true
			}
		}
	}
	if !seen && primary != nil {
		mats = append(mats, primary)
	}
	return mats
}

// KBestTrees computes the k lowest-cost trees for a view's keyword set over
// its current materialisation (capped deeper than the view's own k if
// asked). Used by feedback simulators that inspect a deeper result page
// than the view retains; the returned trees resolve against the same
// overlay as the view's own trees, so they can be passed straight to
// FeedbackPreferTrees.
//
// The page is tie-inclusive: when several trees tie at the k-th cost, all
// of them are returned (the list may exceed k). The k-th rank is
// ill-defined under a cost tie — which tied tree the search enumerates
// first is arbitrary — so feedback judging "the top-k page" must see every
// answer tied at the boundary, or the learning trajectory would depend on
// enumeration order rather than on costs.
func (q *Q) KBestTrees(v *View, k int) []steiner.Tree {
	mat := v.mat.Load()
	if mat == nil {
		return nil
	}
	return q.kBestOf(mat, k)
}

// kBestTieSlack is how many extra trees beyond k the tie-inclusive page
// fetches to discover boundary ties.
const kBestTieSlack = 8

func (q *Q) kBestOf(mat *viewMat, k int) []steiner.Tree {
	if k <= 0 {
		return nil
	}
	trees := q.topKTrees(mat.ov, mat.terminals, k+kBestTieSlack)
	if len(trees) <= k {
		return trees
	}
	kth := trees[k-1].Cost
	cut := k
	for cut < len(trees) && trees[cut].Cost <= kth+1e-9 {
		cut++
	}
	return trees[:cut]
}

// treeExample converts a Steiner tree into a learning example: features are
// the sum over learnable edges; edge keys cover all edges (fixed ones too)
// so the symmetric loss reflects full structural difference.
func treeExample(ov *searchgraph.Overlay, t steiner.Tree) learning.TreeExample {
	keys := make([]string, 0, len(t.Edges))
	feats := make([]learning.Vector, 0, len(t.Edges))
	for _, eid := range t.Edges {
		e := ov.Edge(eid)
		keys = append(keys, fmt.Sprintf("e%d", eid))
		if e.Fixed {
			feats = append(feats, nil)
		} else {
			feats = append(feats, e.Features)
		}
	}
	return learning.NewTreeExample(keys, feats)
}

// learnableEdgeFeatures collects every learnable edge's feature vector for
// the positivity constraints of Algorithm 4 (the fixed zero-cost edges are
// the exempt set A): the base graph's learnable edges plus every live
// view's overlay keyword edges — the same edge population the pre-overlay
// design kept in the one shared graph.
func (q *Q) learnableEdgeFeatures(mats []*viewMat) []learning.Vector {
	out := make([]learning.Vector, 0, q.Graph.NumEdges())
	for i := 0; i < q.Graph.NumEdges(); i++ {
		e := q.Graph.Edge(steiner.EdgeID(i))
		if e.Fixed {
			continue
		}
		out = append(out, e.Features)
	}
	seen := make(map[string]bool)
	for _, m := range mats {
		for _, e := range m.ov.KeywordEdges() {
			// One constraint per distinct keyword edge: views sharing a
			// keyword produce identical feature vectors for the same match.
			var key string
			for feat := range e.Features {
				if feat != "mismatch" {
					key = feat
					break
				}
			}
			if key != "" && seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, e.Features)
		}
	}
	return out
}

// GoldEdgeGap reports the average current cost of association edges whose
// attribute pairs are in gold versus those that are not — the quantity
// plotted in Figure 12. Pairs are canonicalised by sorted string form.
func (q *Q) GoldEdgeGap(gold map[string]bool) (goldAvg, nonGoldAvg float64, goldN, nonGoldN int) {
	for _, a := range q.Graph.AssociationList() {
		key := canonicalPair(a.A.String(), a.B.String())
		c := q.Graph.Cost(a.ID)
		if gold[key] {
			goldAvg += c
			goldN++
		} else {
			nonGoldAvg += c
			nonGoldN++
		}
	}
	if goldN > 0 {
		goldAvg /= float64(goldN)
	}
	if nonGoldN > 0 {
		nonGoldAvg /= float64(nonGoldN)
	}
	return goldAvg, nonGoldAvg, goldN, nonGoldN
}

func canonicalPair(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return a + "~" + b
}

// CanonicalPair exposes the canonical "a~b" form of an attribute pair for
// building gold-standard sets.
func CanonicalPair(a, b string) string { return canonicalPair(a, b) }
