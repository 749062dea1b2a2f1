package core

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qint/internal/learning"
	"qint/internal/obs"
	"qint/internal/relstore"
	"qint/internal/steiner"
)

// The reference oracle. A view is a pure function of (generation,
// keywords, k): no engine width, query cache, trace, restart or crash may
// change an answer. The oracle states that once. It drives a random op list
// through a live engine — cached, wider than one, durable, tracing every
// query, read by four goroutines at once — and, in step, through a
// reference engine that is one wide, uncached, in-memory and untraced.
// After every op both engines must fingerprint identically, and a byte copy
// of the live data directory, reopened without Close, must hold the live
// engine's catalog, graph and weights, with views that answer as the live
// engine does. On a failure the op list is shrunk and printed as a Go
// literal for engineOpsRegressions.
//
// TestEngineMatchesReference runs the live engine with every mechanism on.
// The tests named after one mechanism run the same oracle with only that
// mechanism on, so that a divergence of the combined run can be traced to
// the mechanism that causes it.

// opKind is one kind of op the oracle applies.
type opKind uint8

const (
	opRegister    opKind = iota // RegisterSource: strategy A%3, pool source B%8
	opAlignAll                  // AlignAllPairs
	opAssociate                 // AddAssociations between attributes A and B
	opSetWeights                // SetWeights: weight A scaled by factor B%4
	opFeedbackRow               // FeedbackRow on view A: row B/2, valid when B is even
	opFavorTree                 // FeedbackFavorTree on view A: tree B
	opPreferTrees               // FeedbackPreferTrees on view A: tree B over the others
	opQuery                     // a persistent Query: query A, reversed and k from B
	opEphemeral                 // an ephemeral Query: query A, reversed and k from B
	opDropView                  // DropView of view A
	opCheckpoint                // Checkpoint
	opCrash                     // the store closes without Close; reopen
	opReopen                    // Close; reopen
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"opRegister", "opAlignAll", "opAssociate", "opSetWeights", "opFeedbackRow",
	"opFavorTree", "opPreferTrees", "opQuery", "opEphemeral", "opDropView",
	"opCheckpoint", "opCrash", "opReopen",
}

func (k opKind) String() string { return opKindNames[k%numOpKinds] }

// op is one oracle step; A and B pick its arguments (see opKind).
type op struct {
	Kind opKind
	A, B uint8
}

// opWeights is how often randomOps draws each kind: views must exist for
// feedback and drops to do anything.
var opWeights = [numOpKinds]int{
	opRegister: 2, opAlignAll: 1, opAssociate: 1, opSetWeights: 1,
	opFeedbackRow: 2, opFavorTree: 2, opPreferTrees: 2,
	opQuery: 4, opEphemeral: 2, opDropView: 2,
	opCheckpoint: 1, opCrash: 1, opReopen: 1,
}

// queryWeights deal only reads and view drops: the engine's state stays
// the loaded corpus.
var queryWeights = [numOpKinds]int{opQuery: 4, opEphemeral: 2, opDropView: 2}

// deckSize is how many ops one deck of randomOps deals.
var deckSize = func() int {
	n := 0
	for _, w := range opWeights {
		n += w
	}
	return n
}()

// randomOps draws n ops from seed, dealing the kinds from shuffled decks
// that hold each kind as often as weights says, so that every kind with a
// weight comes up in every deck.
func randomOps(seed int64, n int, weights [numOpKinds]int) []op {
	rng := rand.New(rand.NewSource(seed))
	var deck []opKind
	ops := make([]op, n)
	for i := range ops {
		if len(deck) == 0 {
			for k, w := range weights {
				for range w {
					deck = append(deck, opKind(k))
				}
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		ops[i] = op{Kind: deck[0], A: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		deck = deck[1:]
	}
	return ops
}

// maxFuzzOps bounds the op lists FuzzEngineOps decodes.
const maxFuzzOps = 24

// decodeOps reads an op list from fuzz input, three bytes an op, at most
// maxFuzzOps ops.
func decodeOps(data []byte) []op {
	var ops []op
	for i := 0; i+3 <= len(data) && len(ops) < maxFuzzOps; i += 3 {
		ops = append(ops, op{Kind: opKind(data[i] % byte(numOpKinds)), A: data[i+1], B: data[i+2]})
	}
	return ops
}

// encodeOps is decodeOps's inverse, for the fuzz seeds.
func encodeOps(ops []op) []byte {
	var b []byte
	for _, o := range ops {
		b = append(b, byte(o.Kind), o.A, o.B)
	}
	return b
}

// formatOps prints an op list as a Go literal.
func formatOps(ops []op) string {
	var b strings.Builder
	b.WriteString("[]op{")
	for _, o := range ops {
		fmt.Fprintf(&b, "{%v, %d, %d}, ", o.Kind, o.A, o.B)
	}
	return strings.TrimSuffix(b.String(), ", ") + "}"
}

// crashKeepsUncheckpointedViews is the crash contract (durable.go): views
// persist only through checkpoints, so a crash loses the views created or
// dropped since the last one, and their IDs can be handed out again.
const crashKeepsUncheckpointedViews = false

// registry is a persistent view registry: each view's definition and the
// ID the next view gets.
type registry struct {
	views []viewSnap
	next  int64
}

func registryOf(q *Q) registry {
	m := q.snapMeta()
	return registry{views: m.Views, next: m.NextID}
}

func (r registry) String() string {
	var b strings.Builder
	for _, v := range r.views {
		fmt.Fprintf(&b, "v%d %q k=%d; ", *v.ID, v.Keywords, v.K)
	}
	fmt.Fprintf(&b, "next=%d", r.next)
	return b.String()
}

// setRegistry replaces q's view registry with r, each view materialised at
// q's published generation.
func setRegistry(q *Q, r registry) error {
	views := make([]*View, len(r.views))
	for i, vs := range r.views {
		mat, err := q.materializeCached(q.state(), vs.Keywords, vs.K, nil, nil)
		if err != nil {
			return err
		}
		views[i] = &View{ID: *vs.ID, Keywords: vs.Keywords, K: vs.K}
		views[i].mat.Store(mat)
	}
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	q.views, q.nextViewID = views, r.next
	return nil
}

// crash closes q's store without the final checkpoint Close takes, as a
// killed process leaves it, and joins the checkpointer. Writes to q fail
// from then on.
func crash(q *Q) error {
	p := q.persist
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	p.closed = true
	return p.store.Close()
}

// mechanisms are what the live engine does that the reference does not.
type mechanisms struct {
	cached bool // query caches and carried refresh limits on (New, not newUncached)
	// durable: the live engine is opened on a data dir, the checkpoint,
	// crash and reopen ops run (without it they are skipped), and a byte
	// copy of the dir is reopened after every op that can change it.
	durable bool
	traced  bool // every live query carries a trace, which checkTrace checks
	readers int  // goroutines that ask each query of the live engine at once
}

// allMechanisms is the live engine of TestEngineMatchesReference.
var allMechanisms = mechanisms{cached: true, durable: true, traced: true, readers: readers}

// harness is one run of the oracle: a live engine and its reference,
// in step.
type harness struct {
	t     *testing.T
	c     corpus
	width int
	mech  mechanisms
	dir   string
	live  *Q
	ref   *Q
	// saved is the registry the live data dir's newest checkpoint holds.
	saved registry
	// liveBase and refBase are the engines' epochs at the last reopen:
	// lockstep engines publish together, so their epochs advance alike.
	liveBase, refBase uint64
	ran               [numOpKinds]int
	// pipelines counts traced queries that ran the whole pipeline.
	pipelines int
}

// open opens dir at the harness width with checkpoints left to the ops,
// and registers the corpus's matchers, as a restart does.
func (h *harness) open(dir string) (*Q, error) {
	opts := h.c.opts
	opts.DataDir = dir
	var err error
	q := newAtWidth(h.width, opts, func(opts Options) *Q {
		q, openErr := Open(opts)
		err = openErr
		return q
	})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	q.writerMu.Lock()
	q.persist.limit = manualCheckpoints
	q.writerMu.Unlock()
	if !h.mech.cached {
		uncache(q)
	}
	h.c.addMatchers(q)
	return q, nil
}

// runOps drives ops through a live engine over c at width with mech on and
// through the reference. It returns the first divergence, and how often
// each op kind ran (an op with nothing to act on, such as feedback without
// a view, does not count).
func runOps(t *testing.T, c corpus, width int, mech mechanisms, ops []op) (ran [numOpKinds]int, pipelines int, err error) {
	t.Helper()
	h := &harness{t: t, c: c, width: width, mech: mech}
	if mech.durable {
		if h.dir, err = os.MkdirTemp("", "qint-ref-"); err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(h.dir)
		if h.live, err = h.open(h.dir); err != nil {
			t.Fatal(err)
		}
		defer func() { crash(h.live) }()
		c.load(t, h.live)
	} else {
		newQ := newUncached
		if mech.cached {
			newQ = New
		}
		h.live = c.build(t, newQ, width)
	}
	h.ref = c.build(t, newUncached, 1)
	h.liveBase, h.refBase = h.live.Epoch(), h.ref.Epoch()
	if err := h.check(); err != nil {
		return h.ran, h.pipelines, fmt.Errorf("after loading: %w", err)
	}
	for i, o := range ops {
		if err := h.step(o); err != nil {
			return h.ran, h.pipelines, fmt.Errorf("op %d %v: %w", i, o, err)
		}
	}
	return h.ran, h.pipelines, nil
}

// errString renders an error for comparison ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func sameErr(live, ref error) error {
	if errString(live) != errString(ref) {
		return fmt.Errorf("live error %q, reference error %q", errString(live), errString(ref))
	}
	return nil
}

// viewPair picks the a'th persistent view of each engine; ok is false when
// there is none.
func (h *harness) viewPair(a uint8) (live, ref *View, ok bool) {
	lv, rv := h.live.Views(), h.ref.Views()
	if len(rv) == 0 || len(lv) != len(rv) {
		return nil, nil, false
	}
	i := int(a) % len(rv)
	return lv[i], rv[i], true
}

// step applies one op to both engines and checks them.
func (h *harness) step(o op) error {
	durable := true // whether the op can change what the data dir holds
	if !h.mech.durable && (o.Kind == opCheckpoint || o.Kind == opCrash || o.Kind == opReopen) {
		return h.check() // nothing to act on without a data dir
	}
	switch o.Kind {
	case opRegister:
		strategy := AlignStrategy(o.A % 3)
		src := int(o.B % 8)
		write := func(q *Q) (*RegisterReport, error) { return q.RegisterSource(h.c.source(h.t, src), strategy) }
		if err := h.compareReports(write); err != nil {
			return err
		}
	case opAlignAll:
		if err := h.compareReports((*Q).AlignAllPairs); err != nil {
			return err
		}
	case opAssociate:
		var attrs []relstore.AttrRef
		for _, rel := range h.ref.CurrentCatalog().Relations() {
			for _, a := range rel.Attributes {
				attrs = append(attrs, relstore.AttrRef{Relation: rel.QualifiedName(), Attr: a.Name})
			}
		}
		a, b := attrs[int(o.A)%len(attrs)], attrs[int(o.B)%len(attrs)]
		if a == b {
			b = attrs[(int(o.B)+1)%len(attrs)]
		}
		pair := [2]relstore.AttrRef{a, b}
		feats := learning.Vector{"handcoded": 1}
		if err := sameErr(h.live.AddAssociations(feats, pair), h.ref.AddAssociations(feats, pair)); err != nil {
			return err
		}
	case opSetWeights:
		w := h.ref.CurrentGraph().Weights().Clone()
		keys := slices.Sorted(maps.Keys(w))
		w[keys[int(o.A)%len(keys)]] *= []float64{0.5, 0.8, 1.25, 2}[o.B%4]
		if err := sameErr(h.live.SetWeights(w), h.ref.SetWeights(w.Clone())); err != nil {
			return err
		}
	case opFeedbackRow, opFavorTree, opPreferTrees:
		lv, rv, ok := h.viewPair(o.A)
		if !ok {
			return h.check()
		}
		var lerr, rerr error
		lm, rm := lv.Current(), rv.Current()
		switch trees := rm.Trees; o.Kind {
		case opFeedbackRow:
			row := int(o.B/2) % (len(rm.Result.Rows) + 1) // one past the end is refused
			kind := FeedbackKind(o.B % 2)
			lerr, rerr = h.live.FeedbackRow(lv, row, kind), h.ref.FeedbackRow(rv, row, kind)
		case opFavorTree:
			if len(trees) == 0 {
				return h.check()
			}
			j := int(o.B) % len(trees)
			lerr, rerr = h.live.FeedbackFavorTree(lm, lm.Trees[j]), h.ref.FeedbackFavorTree(rm, trees[j])
		default:
			if len(trees) < 2 {
				return h.check()
			}
			j := int(o.B) % len(trees)
			others := func(ts []steiner.Tree) []steiner.Tree { return slices.Delete(slices.Clone(ts), j, j+1) }
			lerr, rerr = h.live.FeedbackPreferTrees(lm, lm.Trees[j], others(lm.Trees)), h.ref.FeedbackPreferTrees(rm, trees[j], others(trees))
		}
		if err := sameErr(lerr, rerr); err != nil {
			return err
		}
	case opQuery, opEphemeral:
		durable = false
		if err := h.query(o); err != nil {
			return err
		}
	case opDropView:
		durable = false
		_, rv, ok := h.viewPair(o.A)
		if !ok {
			return h.check()
		}
		if l, r := h.live.DropView(rv.ID), h.ref.DropView(rv.ID); l != r {
			return fmt.Errorf("DropView(%d): live %v, reference %v", rv.ID, l, r)
		}
	case opCheckpoint:
		if err := h.live.Checkpoint(); err != nil {
			return err
		}
		h.saved = registryOf(h.ref)
	case opCrash:
		if err := crash(h.live); err != nil {
			return err
		}
		if err := h.reopen(); err != nil {
			return err
		}
		if err := setRegistry(h.ref, h.afterCrash()); err != nil {
			return err
		}
		h.liveBase, h.refBase = h.live.Epoch(), h.ref.Epoch()
	case opReopen:
		if err := h.live.Close(); err != nil {
			return err
		}
		if err := h.reopen(); err != nil {
			return err
		}
		h.saved = registryOf(h.ref)
		h.liveBase, h.refBase = h.live.Epoch(), h.ref.Epoch()
	}
	h.ran[o.Kind]++
	if err := h.check(); err != nil {
		return err
	}
	if durable && h.mech.durable {
		return h.checkCopy()
	}
	return nil
}

// reopen opens the live data dir again after the live engine crashed or
// closed.
func (h *harness) reopen() error {
	q, err := h.open(h.dir)
	if err != nil {
		return err
	}
	h.live = q
	return nil
}

// afterCrash is the registry the crash contract leaves the live engine.
func (h *harness) afterCrash() registry {
	if crashKeepsUncheckpointedViews {
		return registryOf(h.ref)
	}
	return h.saved
}

// compareReports runs one registering write on both engines and compares
// the outcomes: the error, the report and the engine's comparison counters'
// growth.
func (h *harness) compareReports(write func(*Q) (*RegisterReport, error)) error {
	fp := func(q *Q) (string, error) {
		before := alignCounters(q)
		rep, err := write(q)
		if err != nil {
			return "", err
		}
		return fingerprintReport(rep, before, alignCounters(q)), nil
	}
	lfp, lerr := fp(h.live)
	rfp, rerr := fp(h.ref)
	if err := sameErr(lerr, rerr); err != nil {
		return err
	}
	if lfp != rfp {
		return fmt.Errorf("registration reports differ\nlive:\n%s\nreference:\n%s", lfp, rfp)
	}
	return nil
}

// alignCounters reads the engine's three alignment counters.
func alignCounters(q *Q) [3]int {
	return [3]int{q.Stats.BaseMatcherCalls(), q.Stats.AttrComparisons(), q.Stats.ColumnComparisonsUnfiltered()}
}

// fingerprintReport flattens the width-invariant parts of a registration:
// the relations compared, every alignment's best confidence, the report's
// counts and how far the write moved the engine's counters.
func fingerprintReport(rep *RegisterReport, before, after [3]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "source=%s new=%v targets=%v\n", rep.Source, rep.NewRelations, rep.TargetsCompared)
	pairs := make([]string, 0, len(rep.AlignmentsByPair))
	for k, conf := range rep.AlignmentsByPair {
		pairs = append(pairs, fmt.Sprintf("%s=%v", k, conf))
	}
	sort.Strings(pairs)
	fmt.Fprintf(&b, "alignments=%v\n", pairs)
	fmt.Fprintf(&b, "report matcher=%d attr=%d added=%d\n", rep.MatcherCalls, rep.AttrComparisons, rep.AlignmentsAdded)
	fmt.Fprintf(&b, "counters matcher+%d attr+%d unfiltered+%d\n",
		after[0]-before[0], after[1]-before[1], after[2]-before[2])
	return b.String()
}

// readers is how many goroutines ask each query of a live engine at once
// when its mechanisms include concurrent reads.
const readers = 4

// query runs one query op: the reference asks it once; on the live engine
// one reader asks it as the op says and the other readers ask it
// ephemerally, all at once, traced when the mechanisms say so. Every
// answer must be the reference's.
func (h *harness) query(o op) error {
	kws := ParseKeywords(h.c.queries[int(o.A)%len(h.c.queries)])
	if o.B&2 != 0 {
		slices.Reverse(kws)
	}
	k := []int{0, 2}[o.B%2]
	ephemeral := o.Kind == opEphemeral
	rv, rerr := h.ref.Query(Request{Keywords: kws, K: k, Ephemeral: ephemeral})
	var want string
	if rerr == nil {
		m := rv.Current()
		want = fmt.Sprintf("id=%d epoch+%d\n%s", rv.ID, m.Epoch-h.refBase, fingerprintMat(rv, m))
	}
	readers := max(h.mech.readers, 1)
	got := make([]string, readers)
	errs := make([]error, readers)
	traces := make([]*obs.Trace, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.mech.traced {
				traces[g] = obs.NewTrace()
			}
			<-start
			v, err := h.live.Query(Request{Keywords: kws, K: k, Ephemeral: ephemeral || g > 0, Trace: traces[g]})
			if errs[g] = err; err == nil {
				m := v.Current()
				id := v.ID
				if g > 0 {
					id = rv.ID // the ephemeral readers answer for the op's view
				}
				got[g] = fmt.Sprintf("id=%d epoch+%d\n%s", id, m.Epoch-h.liveBase, fingerprintMat(v, m))
			}
		}()
	}
	close(start)
	wg.Wait()
	for g := range readers {
		if err := sameErr(errs[g], rerr); err != nil {
			return fmt.Errorf("query %q k=%d reader %d: %w", kws, k, g, err)
		}
		if got[g] != want {
			return fmt.Errorf("query %q k=%d reader %d diverged\n%s", kws, k, g, diffLines(got[g], want))
		}
		if rerr == nil && h.mech.traced {
			if err := h.checkTrace(traces[g]); err != nil {
				return fmt.Errorf("query %q k=%d reader %d: %w", kws, k, g, err)
			}
		}
	}
	return nil
}

// pipelineStages are the stages a query that computes its materialisation
// records; one answered from the cache, or by another reader's compute,
// records none of them.
var pipelineStages = []obs.Stage{obs.StageExpand, obs.StageSteiner, obs.StageTranslate,
	obs.StagePlan, obs.StageExecute, obs.StageMaterialize}

// checkTrace checks one traced query's trace: a cache lookup on a cached
// engine, all or none of the pipeline stages, and 0 < stage sum <= wall
// time.
func (h *harness) checkTrace(tr *obs.Trace) error {
	b := tr.Breakdown()
	marks := make(map[obs.Stage]int)
	var sum time.Duration
	for i, st := range obs.Stages() {
		if b.Marks[i] > 0 {
			marks[st] = b.Marks[i]
		}
		sum += b.Dur[i]
	}
	if _, ok := marks[obs.StageCacheLookup]; !ok && h.mech.cached {
		return fmt.Errorf("trace has no %s mark: %v", obs.StageCacheLookup, marks)
	}
	n := 0
	for _, st := range pipelineStages {
		if _, ok := marks[st]; ok {
			n++
		}
	}
	switch n {
	case len(pipelineStages):
		h.pipelines++
	case 0:
	default:
		return fmt.Errorf("trace holds %d of the %d pipeline stages: %v", n, len(pipelineStages), marks)
	}
	if wall := tr.Wall(); sum <= 0 || sum > wall {
		return fmt.Errorf("trace stage sum %v outside (0, wall=%v]", sum, wall)
	}
	return nil
}

// check compares the engines' fingerprints and epochs.
func (h *harness) check() error {
	if l, r := h.live.Epoch()-h.liveBase, h.ref.Epoch()-h.refBase; l != r {
		return fmt.Errorf("epochs moved apart: live +%d, reference +%d", l, r)
	}
	if l, r := fingerprintEngine(h.live), fingerprintEngine(h.ref); l != r {
		return fmt.Errorf("engines diverged\n%s", diffLines(l, r))
	}
	return nil
}

// checkCopy reopens a byte copy of the live data dir as a crash would leave
// it and checks it against the live engine: the same catalog, graph and
// weights, the registry the crash contract leaves, and every restored view
// answering as an ephemeral query of the live engine does.
func (h *harness) checkCopy() error {
	dir, err := os.MkdirTemp("", "qint-copy-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	entries, err := os.ReadDir(h.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(h.dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	cp, err := h.open(dir)
	if err != nil {
		return fmt.Errorf("reopening a copy of the data dir: %w", err)
	}
	defer crash(cp)
	if l, c := fingerprintState(h.live), fingerprintState(cp); l != c {
		return fmt.Errorf("the reopened copy diverged\n%s", diffLines(l, c))
	}
	if want, got := h.afterCrash().String(), registryOf(cp).String(); got != want {
		return fmt.Errorf("the reopened copy holds views %s, the crash contract leaves %s", got, want)
	}
	for _, v := range cp.Views() {
		ev, err := h.live.Query(Request{Keywords: v.Keywords, K: v.K, Ephemeral: true})
		if err != nil {
			return err
		}
		if l, c := fingerprintView(ev), fingerprintView(v); l != c {
			return fmt.Errorf("view %d of the reopened copy diverged\n%s", v.ID, diffLines(l, c))
		}
	}
	return nil
}

// diffLines shows the first line where two fingerprints differ.
func diffLines(live, ref string) string {
	l, r := strings.Split(live, "\n"), strings.Split(ref, "\n")
	for i := range min(len(l), len(r)) {
		if l[i] != r[i] {
			return fmt.Sprintf("line %d:\nlive:      %s\nreference: %s", i, l[i], r[i])
		}
	}
	return fmt.Sprintf("live has %d lines, reference %d", len(l), len(r))
}

// fingerprintState renders an engine's published state: catalog relations,
// graph counts, associations with their costs, and the weights.
func fingerprintState(q *Q) string {
	var b strings.Builder
	b.WriteString("relations:")
	for _, r := range q.CurrentCatalog().Relations() {
		b.WriteString(" " + r.QualifiedName())
	}
	g := q.CurrentGraph()
	fmt.Fprintf(&b, "\ngraph nodes=%d edges=%d %+v\n", g.NumNodes(), g.NumEdges(), g.Summary())
	for _, a := range g.AssociationList() {
		fmt.Fprintf(&b, "association %s~%s=%v\n", a.A, a.B, a.Cost)
	}
	w := g.Weights()
	for _, k := range slices.Sorted(maps.Keys(w)) {
		fmt.Fprintf(&b, "weight %s=%v\n", k, w[k])
	}
	return b.String()
}

// fingerprintEngine is the one fingerprint of an engine: its published
// state, then its view registry — every view's ID, how many epochs it
// trails the engine, and fingerprintView of its materialisation.
func fingerprintEngine(q *Q) string {
	var b strings.Builder
	b.WriteString(fingerprintState(q))
	r := registryOf(q)
	fmt.Fprintf(&b, "next view id=%d\n", r.next)
	for _, v := range q.Views() {
		m := v.Current()
		fmt.Fprintf(&b, "view %d lag=%d\n%s", v.ID, q.Epoch()-m.Epoch, fingerprintMat(v, m))
	}
	return b.String()
}

// fingerprintView renders everything a view exposes — keywords, k, α,
// trees, query signatures and SQL, unified columns, ranked rows with
// provenance — into one comparable string.
func fingerprintView(v *View) string {
	return fingerprintMat(v, v.Current())
}

// fingerprintMat is fingerprintView of one given materialisation of v, for
// callers that must pair the fingerprint with that materialisation's epoch.
func fingerprintMat(v *View, m Materialization) string {
	var b strings.Builder
	fmt.Fprintf(&b, "keywords=%q k=%d alpha=%v\n", v.Keywords, v.K, m.Alpha)
	for _, t := range m.Trees {
		fmt.Fprintf(&b, "tree %s cost=%v\n", t.Key(), t.Cost)
	}
	for _, cq := range m.Queries {
		fmt.Fprintf(&b, "query sig=%s\nquery sql=%s\n", cq.Signature(), cq.SQL())
	}
	if m.Result == nil {
		b.WriteString("no result\n")
		return b.String()
	}
	fmt.Fprintf(&b, "cols=%q\n", m.Result.Columns)
	for _, r := range m.Result.Rows {
		fmt.Fprintf(&b, "row %q cost=%v branch=%d prov=%s\n", r.Values, r.Cost, r.Branch, r.Provenance)
	}
	return b.String()
}

// referenceSeeds are the op lists go test runs.
var referenceSeeds = []int64{1, 2, 3}

// referenceRuns are the corpora and live widths go test drives. The fixture
// and InterPro-GO corpora run every seed, two decks of ops each, at widths 2
// and 8, and each op kind must run at least 5 times on each; the GBCO and
// synthetic corpora keep the rest of what the retired width tests saw, with
// one deck of the first seed at width 8.
var referenceRuns = []struct {
	corpus   func() corpus
	widths   []int
	seeds    []int64
	ops      int
	coverage bool
}{
	{fixtureCorpus, []int{2, 8}, referenceSeeds, 2 * deckSize, true},
	{interproCorpus, []int{2, 8}, referenceSeeds, 2 * deckSize, true},
	{gbcoCorpus, []int{8}, referenceSeeds[:1], deckSize, false},
	{syntheticCorpus, []int{8}, referenceSeeds[:1], deckSize, false},
}

// engineOpsRegressions are shrunk op lists that failed the oracle, each
// named after the production-code mutant it caught.
var engineOpsRegressions = []struct {
	name   string
	corpus func() corpus
	width  int
	ops    []op
}{
	// matCacheKey ignores keyword order.
	{name: "cache-key-order", corpus: fixtureCorpus, width: 2, ops: []op{{opQuery, 93, 151}, {opEphemeral, 153, 65}}},
	// A wide engine keeps the last tree of each query signature; a traced
	// query drops its costliest tree.
	{name: "wide-or-traced-trees", corpus: fixtureCorpus, width: 2, ops: []op{{opQuery, 98, 214}}},
	// refreshLocked stores materialisations in completion order.
	{name: "refresh-order", corpus: fixtureCorpus, width: 2, ops: []op{{opQuery, 65, 39}, {opQuery, 191, 6}, {opRegister, 87, 118}}},
	// Replay drops a record's weight delta.
	{name: "replay-weight-delta", corpus: fixtureCorpus, width: 2, ops: []op{{opQuery, 191, 6}, {opFavorTree, 195, 249}}},
	// A refresh searches under 0.95× its view's carried limit and keeps a
	// short answer instead of searching again.
	{name: "carried-limit", corpus: fixtureCorpus, width: 2, ops: []op{{opQuery, 65, 39}, {opPreferTrees, 91, 165}}},
}

// TestEngineMatchesReference runs referenceRuns and the regression table
// through the oracle with every mechanism on.
func TestEngineMatchesReference(t *testing.T) {
	for _, run := range referenceRuns {
		c := run.corpus()
		for _, w := range run.widths {
			t.Run(fmt.Sprintf("%s/width%d", c.name, w), func(t *testing.T) {
				ran, pipelines := checkMechanism(t, c, w, allMechanisms, run.seeds, run.ops, opWeights)
				if t.Failed() {
					return
				}
				for k, n := range ran {
					if run.coverage && n < 5 {
						t.Errorf("%v ran %d times, want at least 5", opKind(k), n)
					}
				}
				if pipelines == 0 {
					t.Error("no traced query ran the pipeline")
				}
				t.Logf("ops run: %v", ran)
			})
		}
	}
	for _, r := range engineOpsRegressions {
		t.Run("regression/"+r.name, func(t *testing.T) {
			if _, _, err := runOps(t, r.corpus(), r.width, allMechanisms, r.ops); err != nil {
				reportFailure(t, r.corpus(), r.width, allMechanisms, r.ops, err)
			}
		})
	}
}

// checkMechanism drives the op lists of seeds, n ops each dealt by
// weights, through the oracle over c with the live engine at width and
// mech on. It stops at the first failing list, which it shrinks and
// reports, and returns how often each op kind ran and how many traced
// queries ran the pipeline.
func checkMechanism(t *testing.T, c corpus, width int, mech mechanisms, seeds []int64, n int, weights [numOpKinds]int) (ran [numOpKinds]int, pipelines int) {
	t.Helper()
	for _, seed := range seeds {
		ops := randomOps(seed, n, weights)
		r, p, err := runOps(t, c, width, mech, ops)
		if err != nil {
			reportFailure(t, c, width, mech, ops, err)
			return ran, pipelines
		}
		for k := range ran {
			ran[k] += r[k]
		}
		pipelines += p
	}
	return ran, pipelines
}

// The tests below run the oracle with one mechanism on at a time, so a
// divergence of TestEngineMatchesReference shows up under the mechanism
// that causes it. Each also failed its mutant of engineOpsRegressions.

// TestCachedVsUncachedMetamorphic: a cached one-wide engine, its queries
// read by four goroutines at once (the cache's singleflight), answers as
// the uncached reference after every op. A cached engine also refreshes
// each view under the limit its previous answer carries, and the uncached
// one with no limit, so the limit is judged here too.
func TestCachedVsUncachedMetamorphic(t *testing.T) {
	checkMechanism(t, fixtureCorpus(), 1, mechanisms{cached: true, readers: readers},
		referenceSeeds, 2*deckSize, opWeights)
}

// TestTracingMetamorphic: a traced query answers as an untraced one, and
// its trace holds all or none of the pipeline stages and 0 < stage sum <=
// wall time.
func TestTracingMetamorphic(t *testing.T) {
	_, pipelines := checkMechanism(t, fixtureCorpus(), 1, mechanisms{traced: true, readers: 1},
		referenceSeeds, 2*deckSize, opWeights)
	if pipelines == 0 && !t.Failed() {
		t.Error("no traced query ran the pipeline")
	}
}

// TestRestartEquivalence: a durable engine checkpoints, crashes and
// reopens, and after every write a byte copy of its data dir reopens to
// its state, with the views the crash contract leaves.
func TestRestartEquivalence(t *testing.T) {
	ran, _ := checkMechanism(t, fixtureCorpus(), 1, mechanisms{durable: true, readers: 1},
		referenceSeeds, 2*deckSize, opWeights)
	for _, k := range []opKind{opCheckpoint, opCrash, opReopen} {
		if ran[k] == 0 && !t.Failed() {
			t.Errorf("%v never ran", k)
		}
	}
}

// widths are the live engine widths the width tests compare with the
// one-wide reference.
var widths = []int{2, 8}

// TestParallelQueryEquivalence: on each corpus, 2- and 8-wide engines read
// by four goroutines at once answer every query as the one-wide reference.
func TestParallelQueryEquivalence(t *testing.T) {
	for _, newCorpus := range []func() corpus{fixtureCorpus, gbcoCorpus, interproCorpus, syntheticCorpus} {
		c := newCorpus()
		t.Run(c.name, func(t *testing.T) {
			for _, w := range widths {
				checkMechanism(t, c, w, mechanisms{readers: readers}, referenceSeeds[:1], deckSize, queryWeights)
			}
		})
	}
}

// TestParallelRefreshEquivalence: on each corpus, 2- and 8-wide engines
// report every registration and refresh every view after every write as
// the one-wide reference does.
func TestParallelRefreshEquivalence(t *testing.T) {
	for _, newCorpus := range []func() corpus{fixtureCorpus, gbcoCorpus, interproCorpus, syntheticCorpus} {
		c := newCorpus()
		t.Run(c.name, func(t *testing.T) {
			for _, w := range widths {
				checkMechanism(t, c, w, mechanisms{readers: 1}, referenceSeeds, deckSize, opWeights)
			}
		})
	}
}

// reportFailure shrinks a failing op list — dropping one op at a time
// while the run still fails — and prints it as a Go literal. The regression
// table runs every mechanism, so a list shrunk under fewer still fails there.
func reportFailure(t *testing.T, c corpus, width int, mech mechanisms, ops []op, err error) {
	t.Helper()
	fails := func(ops []op) bool {
		_, _, err := runOps(t, c, width, mech, ops)
		return err != nil
	}
	shrunk := slices.Clone(ops)
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(shrunk); i++ {
			cand := slices.Delete(slices.Clone(shrunk), i, i+1)
			if fails(cand) {
				shrunk, changed = cand, true
				i--
			}
		}
	}
	_, _, serr := runOps(t, c, width, mech, shrunk)
	t.Errorf("%s at width %d with %+v: %v\nshrunk to %d ops, which fail with: %v\nregression case:\n{name: \"\", corpus: %sCorpus, width: %d, ops: %s},",
		c.name, width, mech, err, len(shrunk), serr, c.name, width, formatOps(shrunk))
}

// FuzzEngineOps decodes its input into an op list and drives it over the
// fixture at width 2 with every mechanism on.
func FuzzEngineOps(f *testing.F) {
	for _, seed := range referenceSeeds {
		f.Add(encodeOps(randomOps(seed, maxFuzzOps, opWeights)))
	}
	for _, r := range engineOpsRegressions {
		f.Add(encodeOps(r.ops))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeOps(data)
		if _, _, err := runOps(t, fixtureCorpus(), 2, allMechanisms, ops); err != nil {
			t.Fatalf("%v\nops: %s", err, formatOps(ops))
		}
	})
}
