package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"qint/internal/learning"
	"qint/internal/relstore"
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

// errUnmaterialised refuses feedback naming a Materialization that Current
// did not return (the zero value).
var errUnmaterialised = errors.New("core: feedback on unmaterialised view")

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
// Ordering semantics: FeedbackRow is the one call that reads a view's
// current materialisation itself, under the writer lock, because an HTTP
// row index arrives without the materialisation it was read from. In
// normal operation every write refreshes every view, so that
// materialisation reflects the latest published state; a view created
// concurrently with a write may briefly trail by one generation, and its
// feedback is interpreted against what it actually shows (then the
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
	tree, err := mat.treeOf(mat.result.Rows[rowIdx].Branch)
	if err != nil {
		return err
	}
	switch kind {
	case FeedbackValid:
		return q.feedbackFavorLocked(mat, tree)
	default:
		// Prefer the best tree that is not the offending one.
		for _, t := range mat.trees {
			if t.Key() != tree.Key() {
				return q.feedbackFavorLocked(mat, t)
			}
		}
		return nil // nothing else to promote
	}
}

// FeedbackFavorTree is the core of Algorithm 4 (ONLINELEARNER): the user's
// feedback names a target tree Tr for the view's keyword set Sr; the k-best
// list B of m's overlay is recomputed for m's k, MIRA finds the minimal
// weight change under which Tr beats every T ∈ B by margin L(Tr, T) while
// every learnable edge cost stays positive (one QP), and views are
// refreshed under the new costs. The target tree must come from m (its
// Trees or KBestTrees), whose overlay its ids resolve against.
func (q *Q) FeedbackFavorTree(m Materialization, target steiner.Tree) error {
	if m.m == nil {
		return errUnmaterialised
	}
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	return q.feedbackFavorLocked(m.m, target)
}

func (q *Q) feedbackFavorLocked(mat *viewMat, target steiner.Tree) error {
	t := time.Now()
	page := q.kBestOf(mat, mat.k)
	q.metrics.span(writePage, t)
	return q.feedbackPreferLocked(mat, target, page)
}

// FeedbackPreferTrees applies ranking feedback (paper §4: "tuple t_x should
// be scored higher than t_y"): the target tree is constrained to cost less
// than each tree in worse, by the structural-loss margin. Callers that know
// several answers are correct (a user may mark more than one answer valid)
// pass only the genuinely-worse trees, so good alternatives are not pushed
// away while promoting the target. All trees must come from m (its Trees
// or KBestTrees): their node and edge ids are resolved against its overlay.
func (q *Q) FeedbackPreferTrees(m Materialization, target steiner.Tree, worse []steiner.Tree) error {
	if m.m == nil {
		return errUnmaterialised
	}
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	return q.feedbackPreferLocked(m.m, target, worse)
}

// feedbackPreferLocked is the one feedback write. The WAL logs its complete
// effect as one weight delta against the published vector (keyword-weight
// seeding + MIRA update), so replay reproduces the post-feedback vector
// exactly without re-running MIRA, which would need the overlays and result
// sets.
func (q *Q) feedbackPreferLocked(mat *viewMat, target steiner.Tree, worse []steiner.Tree) error {
	t := time.Now()
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
					q.graph.EnsureWeight(feat, searchgraph.KwEdgeBaseWeight)
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
		q.graph.Weights(), treeExample(mat.ov, target), competitors,
		q.learnableEdgeFeatures(mats))
	q.metrics.span(writeLearn, t)
	return q.setWeightsLocked(w)
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
// the overlay of m (k may be deeper than the view's own). Used by feedback
// simulators that inspect a deeper result page than the view retains; the
// returned trees resolve against the same overlay as m.Trees, so they can
// be passed with m straight to FeedbackPreferTrees.
//
// The page is tie-inclusive: when several trees tie at the k-th cost, all
// of them are returned (the list may exceed k). The k-th rank is
// ill-defined under a cost tie — which tied tree the search enumerates
// first is arbitrary — so feedback judging "the top-k page" must see every
// answer tied at the boundary, or the learning trajectory would depend on
// enumeration order rather than on costs.
func (q *Q) KBestTrees(m Materialization, k int) []steiner.Tree {
	if m.m == nil {
		return nil
	}
	return q.kBestOf(m.m, k)
}

// kBestTieSlack is how many extra trees beyond k the tie-inclusive page
// fetches to discover boundary ties, and kBestTieTol how far above the k-th
// cost a tree still ties with it.
const (
	kBestTieSlack = 8
	kBestTieTol   = 1e-9
)

// kBestOf is the tie-inclusive page of k trees over mat's overlay: the
// top k+kBestTieSlack, cut after the last tree within kBestTieTol of the
// k-th cost. When mat holds k trees (it holds at most its own k), its k-th
// cost is the page's, on the same overlay, so the search runs under that
// cost plus kBestTieTol and returns the prefix of the unlimited answer
// under it (steiner.TopKSteinerUnder): every tree the cut keeps. Fewer than
// k+kBestTieSlack trees is the expected answer; only fewer than k runs
// again. A view with fewer than k trees, a page deeper than the view and
// the tests' uncached engines (the reference oracle's side) get no limit.
func (q *Q) kBestOf(mat *viewMat, k int) []steiner.Tree {
	if k <= 0 {
		return nil
	}
	limit := math.Inf(1)
	if k <= len(mat.trees) && !q.uncached {
		limit = mat.trees[k-1].Cost + kBestTieTol
	}
	trees := q.topKTrees(mat.ov, mat.terminals, k+kBestTieSlack, limit, k)
	if len(trees) <= k {
		return trees
	}
	kth := trees[k-1].Cost
	cut := k
	for cut < len(trees) && trees[cut].Cost <= kth+kBestTieTol {
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
		keys = append(keys, "e"+strconv.Itoa(int(eid)))
		if e.Fixed {
			feats = append(feats, nil)
		} else {
			feats = append(feats, e.Features)
		}
	}
	return learning.NewTreeExample(keys, feats)
}

// learnableEdgeFeatures states Algorithm 4's positivity constraints (the
// fixed zero-cost edges are the exempt set A): the base graph's learnable
// edges, interned once by the builder, in edge-id order, then every live
// view's overlay keyword edges, interned by the update — the same edge
// population the pre-overlay design kept in the one shared graph.
func (q *Q) learnableEdgeFeatures(mats []*viewMat) learning.Positivity {
	dict, edges := q.graph.LearnableFeatures()
	pos := learning.Positivity{Dict: dict, Edges: edges, Floor: minLearnableCost}
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
			pos.More = append(pos.More, e.Features)
		}
	}
	return pos
}

// GoldEdgeGap reports the average current cost of association edges whose
// attribute pairs are in gold versus those that are not — the quantity
// plotted in Figure 12. Pairs are canonicalised by sorted string form.
func (q *Q) GoldEdgeGap(gold map[string]bool) (goldAvg, nonGoldAvg float64, goldN, nonGoldN int) {
	for _, a := range q.CurrentGraph().AssociationList() {
		key := relstore.CanonicalPair(a.A, a.B)
		c := a.Cost
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
