// Package core is Q itself — the keyword search-based data integration
// system of Talukdar, Ives & Pereira (SIGMOD 2010). It wires the substrates
// together: the relational catalog, the search graph, the pluggable schema
// matchers, the Steiner-tree view constructor, the source-registration
// aligners (EXHAUSTIVE, VIEWBASEDALIGNER, PREFERENTIALALIGNER) and the
// MIRA-based association-cost learner driven by feedback on query answers.
//
// Lifecycle (Figure 1 of the paper):
//
//	q := core.New(core.DefaultOptions())
//	q.AddMatcher(meta.New())
//	q.AddMatcher(mad.New())
//	q.AddTables(tables...)          // initial sources
//	view, _ := q.Query(core.Request{Keywords: core.ParseKeywords("GO term name 'plasma membrane' publication titles")})
//	...
//	q.RegisterSource(newTables, core.ViewBased)   // search graph maintenance
//	q.FeedbackRow(view, 0, core.FeedbackValid)    // association cost learning
package core

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qint/internal/learning"
	"qint/internal/matcher"
	"qint/internal/obs"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/steiner"
	"qint/internal/text"
)

// Options are the settings a caller chooses; the paper's fixed parameters
// (k, Y, the keyword-match threshold and budget, the column-merge threshold
// t, the preferential budget) are the constants below.
type Options struct {
	// ValueOverlapFilter restricts attribute comparisons to pairs with at
	// least one shared value (the content-index variant of Figure 7).
	ValueOverlapFilter bool
	// RawConfidences disables the confidence binning of §4 and feeds each
	// matcher's real-valued confidence directly into the edge features (as
	// a mismatch value, 1 − confidence). The paper warns this destabilises
	// MIRA ("using real-valued features directly in the algorithm can
	// cause poor learning"); the ablation benchmark quantifies it.
	RawConfidences bool
	// MaxViews caps the persistent view registry: at the cap, a persistent
	// Query returns ErrViewLimit (ephemeral queries and the views a restart
	// restores are exempt). Zero means the default, 10000.
	MaxViews int
	// DataDir, when set, makes the instance durable: core.Open maps the
	// newest generation snapshot in the directory and replays the epoch WAL
	// tail, and every subsequent mutation is fsync'd to the WAL before its
	// state generation is published (log-then-publish). Empty means fully
	// in-memory (core.New semantics). See internal/storage for the on-disk
	// layout and doc.go for the durability contract.
	DataDir string
}

// The parameters the paper's experiments fix.
const (
	// defaultK is the paper's k: a view's answer count when Request.K <= 0.
	defaultK = 5
	// topY is how many candidate alignments per attribute each matcher
	// contributes to the search graph (paper §3.2.3).
	topY = 2
	// matchThreshold is the minimum keyword similarity for a keyword edge
	// (paper §2.2).
	matchThreshold = 0.30
	// maxMatchesPerKeyword bounds how many schema elements, and how many
	// data values, one keyword links to.
	maxMatchesPerKeyword = 8
	// columnAlignThreshold is the cost threshold t under which an
	// association edge merges two output columns in the unioned view
	// (paper §2.2).
	columnAlignThreshold = 2.0
	// preferentialBudget is how many top-prior relations PREFERENTIALALIGNER
	// compares a new source against (paper §3.3).
	preferentialBudget = 3
)

// DefaultOptions returns the default settings: in-memory, binned
// confidences, no value-overlap filter, at most 10000 views.
func DefaultOptions() Options {
	return Options{MaxViews: 10000}
}

func (o Options) withDefaults() Options {
	if o.MaxViews <= 0 {
		o.MaxViews = DefaultOptions().MaxViews
	}
	return o
}

// Stats counts the alignment work done during source registration: engine
// totals that only grow (a RegisterReport carries one registration's
// share, which the Figure 7 experiment sums).
//
// The counters are registry-owned (see internal/obs): New wires each field
// to the engine's qint_align_* metric families, so this struct is a typed
// view over the registry rather than a second accounting. obs counters are
// atomic, so readers (shells, monitoring, tests) can sample them
// concurrently with an in-flight registration without a data race — Query
// has been lock-free since the snapshot redesign, so nothing on any hot
// path may bump a plain int; the hammer in cache_test.go pins concurrent
// reads under -race.
type Stats struct {
	baseMatcherCalls            *obs.Counter
	attrComparisons             *obs.Counter
	columnComparisonsUnfiltered *obs.Counter
}

// BaseMatcherCalls counts relation-pair matcher invocations (the
// BASEMATCHER calls of Algorithms 2–3).
func (s *Stats) BaseMatcherCalls() int { return int(s.baseMatcherCalls.Load()) }

// AttrComparisons counts pairwise attribute comparisons performed,
// honouring the value-overlap filter when enabled.
func (s *Stats) AttrComparisons() int { return int(s.attrComparisons.Load()) }

// ColumnComparisonsUnfiltered counts comparisons as if no filter were
// available (the "No Additional Filter" accounting of Figure 7).
func (s *Stats) ColumnComparisonsUnfiltered() int {
	return int(s.columnComparisonsUnfiltered.Load())
}

// qstate is one published generation of Q's shared read state. Writers
// build the next generation under writerMu and swap it in atomically;
// queries load it once and work against it for their whole lifetime, so a
// query sees either entirely the pre-write world or entirely the post-write
// world — never a torn mix (snapshot isolation).
type qstate struct {
	graph  *searchgraph.Snapshot
	cat    *relstore.Catalog
	corpus *text.Corpus
	// epoch counts publishes that changed anything; a view materialisation
	// records the epoch it was computed at so staleness is one comparison.
	epoch uint64
	// publishedAt is when this generation was published (zero on interim
	// unpublished states) — the qint_epoch_age_seconds gauge and the /stats
	// epoch-age field read it.
	publishedAt time.Time
	// qc is this generation's own query caches, attached empty by
	// publishLocked and garbage together with the generation. It is nil on
	// the interim states registration builds over the half-built next
	// generation (unpublishedStateLocked), which reuse the previous epoch
	// number and so must not cache, and on the tests' uncached engines.
	qc *queryCaches
}

// Q is the integration system.
//
// Concurrency model: Q is single-writer, many-query. The mutating
// operations — AddMatcher, AddTables, RegisterSource, AlignAllPairs,
// AddAssociations, SetWeights and feedback — serialise on an internal
// writer mutex, mutate the private builder (catalog, graph, corpus)
// copy-on-write, and end in commitLocked: log, publish the result as an
// immutable qstate via one atomic pointer swap, refresh the views — or, if
// the write failed before the publish, roll the builder back. Query takes
// NO lock at all: it loads the current qstate, expands its keywords into a
// private search-graph overlay, and runs Steiner search, translation and
// execution entirely against that frozen generation. Independent queries
// therefore run fully concurrently with each other AND with an in-flight
// registration or feedback update; a query observes a write only by
// starting after its publish.
//
// Code outside this package reads the published generation
// (CurrentCatalog, CurrentGraph) and changes it only through the writers.
type Q struct {
	Stats Stats

	// catalog, graph and corpus are the builder: the next generation under
	// construction. Outside a write they are the published generation.
	// Accessed under writerMu only.
	catalog *relstore.Catalog
	graph   *searchgraph.Graph
	corpus  *text.Corpus
	// touched lists the association edges the write in progress added or
	// merged into (associateLocked); commitLocked logs their final features.
	touched []steiner.EdgeID

	opts Options
	// width is runtime.GOMAXPROCS(0), read once by New. It sizes the
	// refresh and value-index fan-outs. Answers are byte-identical at any
	// width.
	width int

	matchers []matcher.Matcher
	binner   learning.Binner
	mira     *learning.MIRA

	// writerMu serialises all mutating operations.
	writerMu sync.Mutex
	// st is the published read state; never nil after New.
	st atomic.Pointer[qstate]
	// epoch counts state publishes that changed something.
	epoch uint64

	// viewsMu guards the view registry only (not view contents, which are
	// swapped atomically per view): the persistent views in creation order,
	// and the ID the next one gets.
	viewsMu    sync.Mutex
	views      []*View
	nextViewID int64

	// uncached, set by the tests' cold oracle engines only, publishes
	// generations without query caches.
	uncached bool

	// matComputeHook, when set (tests only, before concurrency starts), is
	// called inside the materialisation cache's compute — the
	// coalescing test parks the leader here while counting waiters.
	matComputeHook func()

	// persist is the durable-storage attachment (nil for in-memory
	// instances). Set once by Open before the Q is shared; its store is
	// accessed under writerMu thereafter. See durable.go.
	persist *persistence

	// metrics is the engine's metric set — every counter above and below
	// registers into its obs.Registry (obs.go). Set once by New, never nil
	// on a constructed Q.
	metrics *engineMetrics
}

// PlanStats is one snapshot of the planner's counters, served on /stats.
type PlanStats struct {
	// BranchesPlanned is the number of branch queries planned.
	BranchesPlanned int64 `json:"branches_planned"`
}

// PlanStats returns the accumulated planner counters across every view
// materialisation this instance executed: the branch queries planned. Safe
// for concurrent use.
func (q *Q) PlanStats() PlanStats {
	return PlanStats{BranchesPlanned: q.metrics.planBranchesPlanned.Load()}
}

// New constructs an empty Q system with the given options and the default
// initial weight vector.
func New(opts Options) *Q {
	q := &Q{
		catalog: relstore.NewCatalog(),
		graph:   searchgraph.New(DefaultWeights()),
		opts:    opts.withDefaults(),
		width:   runtime.GOMAXPROCS(0),
		binner:  learning.DefaultBinner(),
		mira:    learning.NewMIRA(),
		corpus:  text.NewCorpus(),
	}
	q.instrumentEngine(newEngineMetrics())
	q.publishLocked()
	return q
}

// Options returns the effective options.
func (q *Q) Options() Options { return q.opts }

// state loads the current published read state.
func (q *Q) state() *qstate { return q.st.Load() }

// CurrentCatalog returns the published catalog, safe to use concurrently
// with writers. Callers must not mutate it.
func (q *Q) CurrentCatalog() *relstore.Catalog { return q.state().cat }

// CurrentGraph returns the published search-graph snapshot, safe to use
// concurrently with writers.
func (q *Q) CurrentGraph() *searchgraph.Snapshot { return q.state().graph }

// Epoch returns the published state generation (for tests and staleness
// checks).
func (q *Q) Epoch() uint64 { return q.state().epoch }

// EpochTime returns when the current state generation was published —
// /stats reports the age alongside the epoch number.
func (q *Q) EpochTime() time.Time { return q.state().publishedAt }

// publishLocked publishes the builder state as the next read generation,
// with new, empty query caches of its own. Callers hold writerMu (or are
// inside New, before any concurrency). When nothing changed since the last
// publish the previous generation is returned unchanged, so idempotent
// writers do not churn epochs.
func (q *Q) publishLocked() *qstate {
	snap := q.graph.Snapshot()
	prev := q.st.Load()
	if prev != nil && prev.graph == snap && prev.cat == q.catalog && prev.corpus == q.corpus {
		return prev
	}
	q.epoch++
	st := &qstate{
		graph:       snap,
		cat:         q.catalog,
		corpus:      q.corpus,
		epoch:       q.epoch,
		publishedAt: time.Now(),
	}
	if !q.uncached {
		st.qc = newQueryCaches(q.metrics)
	}
	q.st.Store(st)
	return st
}

// commitLocked ends every write; callers hold writerMu and pass the
// mutation's own outcome as err. On a durable engine rec, completed with
// the final features of every association edge the write touched (in id
// order), is appended to the WAL when it records anything. The builder is
// then published, and if that made a new generation every persistent view
// rematerialises against it. If the mutation or the append failed, nothing
// is published: the builder returns to the published generation and err is
// returned. A durable engine refuses every write after Close with
// ErrClosed. A refresh error is returned too, but by then the write is
// durable and visible.
func (q *Q) commitLocked(rec walRecord, err error) error {
	t := time.Now()
	switch {
	case err != nil || q.persist == nil:
	case q.persist.closed:
		err = ErrClosed
	default:
		rec.Assocs = q.touchedAssocsLocked()
		err = q.logMutationLocked(rec)
	}
	t = q.metrics.span(writeLog, t)
	q.touched = nil
	if err != nil {
		q.rollbackLocked()
		return err
	}
	prev := q.st.Load()
	st := q.publishLocked()
	t = q.metrics.span(writePublish, t)
	if st != prev {
		if err = q.refreshLocked(st); err != nil {
			err = fmt.Errorf("core: refresh %w", err)
		}
	}
	q.metrics.span(writeRefresh, t)
	return err
}

// rollbackLocked discards the builder's unpublished mutations: catalog,
// corpus and graph return to the published generation.
func (q *Q) rollbackLocked() {
	st := q.st.Load()
	q.catalog, q.corpus = st.cat, st.corpus
	q.graph.Reset(st.graph)
}

// associateLocked adds an association edge (or merges features into the
// existing one for the pair) and notes it for the write's WAL record.
func (q *Q) associateLocked(a, b relstore.AttrRef, features learning.Vector) {
	q.touched = append(q.touched, q.graph.AddAssociationEdge(a, b, features))
}

// touchedAssocsLocked renders the association edges the write touched,
// each once, in id order, with their final features.
func (q *Q) touchedAssocsLocked() []walAssoc {
	ids := slices.Compact(slices.Sorted(slices.Values(q.touched)))
	out := make([]walAssoc, len(ids))
	for i, id := range ids {
		e := q.graph.Edge(id)
		out[i] = walAssoc{A: e.A, B: e.B, Features: e.Features}
	}
	return out
}

// unpublishedStateLocked builds a qstate over the CURRENT builder contents
// without publishing it. Registration uses it mid-flight: target selection
// and alignment need Steiner searches over the half-built next generation,
// but concurrent queries must keep seeing the previous one until the write
// commits atomically at the end.
func (q *Q) unpublishedStateLocked() *qstate {
	return &qstate{
		graph:  q.graph.Snapshot(),
		cat:    q.catalog,
		corpus: q.corpus,
		epoch:  q.st.Load().epoch, // not a published generation
	}
}

// ownStorageLocked detaches the builder catalog and corpus from the
// published generation before mutating them (copy-on-write). The graph
// handles its own COW internally.
func (q *Q) ownStorageLocked() {
	st := q.st.Load()
	if st == nil {
		return
	}
	if st.cat == q.catalog {
		q.catalog = q.catalog.Clone()
	}
	if st.corpus == q.corpus {
		q.corpus = q.corpus.Clone()
	}
}

// DefaultWeights is the initial weight vector: every learnable edge pays a
// small default cost; foreign keys carry the default FK cost c_d; keyword
// edges pay a base cost plus a mismatch penalty scaled by (1 − similarity);
// matcher-confidence bins are installed by AddMatcher.
func DefaultWeights() learning.Vector {
	return learning.Vector{
		"default":  0.10,
		"fk":       0.90,
		"kw":       0.20,
		"mismatch": 1.00,
	}
}

// AddMatcher registers a schema matcher and installs default weights for
// its confidence-bin features and its "absent" marker. Higher-confidence
// bins cost less, and an edge a matcher did NOT endorse pays the absent
// penalty — so agreement between matchers lowers an association's initial
// cost rather than stacking endorsement costs. Register all matchers
// before running alignments so absent markers are complete.
//
// Only missing weights are installed, so re-registering a matcher after
// Open or Load leaves the graph, the epoch and the views untouched. The
// weights are not logged: matchers are code, re-registered on every start.
func (q *Q) AddMatcher(m matcher.Matcher) {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	q.matchers = append(q.matchers, m)
	w := q.graph.Weights()
	missing := learning.Vector{}
	for bin := 0; bin < q.binner.NumBins(); bin++ {
		feat := fmt.Sprintf("matcher:%s:bin%d", m.Name(), bin)
		if _, ok := w[feat]; !ok {
			// bin0 (confidence <0.2) → 1.2 down to bin4 (≥0.8) → 0.2
			missing[feat] = 1.2 - 0.25*float64(bin)
		}
	}
	if absent := "matcher:" + m.Name() + ":absent"; w[absent] == 0 {
		missing[absent] = 0.85
	}
	if raw := "matcher:" + m.Name() + ":rawmismatch"; w[raw] == 0 {
		missing[raw] = 1.0 // only used in RawConfidences ablation mode
	}
	if len(missing) > 0 {
		w = w.Clone()
		maps.Copy(w, missing)
		q.graph.SetWeights(w)
	}
	// An empty record is never logged, so the only error left is a view
	// refresh's, which qint_refresh_errors_total counts; the views keep
	// their previous materialisations.
	_ = q.commitLocked(walRecord{}, nil)
}

// AddTables registers the initial data sources (before any maintenance):
// tables enter the catalog, the search graph grows relation/attribute/FK
// nodes and edges, and schema labels are indexed for keyword matching. No
// alignment runs — initial sources are assumed interlinked by declared
// foreign keys (paper §2.1).
func (q *Q) AddTables(tables ...*relstore.Table) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	err := q.addTablesLocked(tables...)
	if err == nil {
		q.catalog.BuildValueIndex(q.width)
	}
	return q.commitLocked(walRecord{Tables: tables}, err)
}

// addTablesLocked adds tables to the catalog, the search graph and the
// keyword corpus, and leaves them unindexed: the writers that read values
// next (AddTables, registerLocked) build their segments, one task per
// table across the worker pool, and WAL replay, which reads no values,
// indexes every replayed table once after the tail.
func (q *Q) addTablesLocked(tables ...*relstore.Table) error {
	q.ownStorageLocked()
	for _, t := range tables {
		if err := q.catalog.AddTable(t); err != nil {
			return err
		}
	}
	rels := make([]*relstore.Relation, len(tables))
	for i, t := range tables {
		rels[i] = t.Relation
		q.indexRelation(t.Relation)
	}
	q.graph.AddRelations(q.catalog, rels)
	return nil
}

// indexRelation adds a relation's schema labels to the keyword corpus.
// Callers hold writerMu and have detached the corpus via ownStorageLocked.
// Every id is new, as Corpus.Add requires: the catalog refuses a second
// relation under one qualified name and a relation with duplicate
// attribute names.
func (q *Q) indexRelation(rel *relstore.Relation) {
	qn := rel.QualifiedName()
	q.corpus.Add("rel:"+qn, rel.Name)
	for _, a := range rel.Attributes {
		ref := relstore.AttrRef{Relation: qn, Attr: a.Name}
		q.corpus.Add("attr:"+ref.String(), a.Name)
	}
}

// Views returns the persistent views in creation order (ascending ID).
func (q *Q) Views() []*View {
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	return append([]*View(nil), q.views...)
}

// View returns the persistent view with the given ID, or nil if there is
// none (never created, dropped, or ephemeral).
func (q *Q) View(id int64) *View {
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	if i, ok := q.viewIndexLocked(id); ok {
		return q.views[i]
	}
	return nil
}

// DropView removes the view with the given ID from the maintenance set and
// reports whether it was there. The view keeps its last materialisation but
// no longer participates in refreshes or VIEWBASEDALIGNER neighbourhoods;
// its ID is never handed out again.
func (q *Q) DropView(id int64) bool {
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	i, ok := q.viewIndexLocked(id)
	if ok {
		q.views = append(q.views[:i], q.views[i+1:]...)
	}
	return ok
}

// viewIndexLocked finds a view by ID: views are kept in creation order and
// IDs ascend with it, so a binary search suffices. Callers hold viewsMu.
func (q *Q) viewIndexLocked(id int64) (int, bool) {
	i := sort.Search(len(q.views), func(i int) bool { return q.views[i].ID >= id })
	return i, i < len(q.views) && q.views[i].ID == id
}

// atViewLimit reports whether the view registry is full.
func (q *Q) atViewLimit() bool {
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	return len(q.views) >= q.opts.MaxViews
}

// AddAssociations adds one association edge per attribute pair, each
// carrying features, as one write: the "hand-coded schema alignments" of
// paper §2.1 pass {"handcoded": 1}. A pair that already has an edge has
// the features merged into it, as a second matcher's endorsement would.
func (q *Q) AddAssociations(features learning.Vector, pairs ...[2]relstore.AttrRef) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	for _, p := range pairs {
		q.associateLocked(p[0], p[1], features)
	}
	return q.commitLocked(walRecord{}, nil)
}

// SetWeights replaces the weight vector, which reprices every learnable
// edge, as one write; the WAL logs the change as a weight delta.
func (q *Q) SetWeights(w learning.Vector) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	return q.setWeightsLocked(w)
}

func (q *Q) setWeightsLocked(w learning.Vector) error {
	d := searchgraph.DiffWeights(q.state().graph.Weights(), w)
	t := time.Now()
	q.graph.SetWeights(w)
	q.metrics.span(writeReprice, t)
	return q.commitLocked(walRecord{WeightDelta: d}, nil)
}

// ParseKeywords splits a query string into keywords, honouring single
// quotes for multi-word phrases ('plasma membrane').
func ParseKeywords(query string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range query {
		switch {
		case r == '\'':
			if inQuote {
				flush()
			}
			inQuote = !inQuote
		case r == ' ' || r == '\t' || r == '\n':
			if inQuote {
				cur.WriteRune(r)
			} else {
				flush()
			}
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}
