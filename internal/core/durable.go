package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"qint/internal/learning"
	"qint/internal/relstore"
	"qint/internal/searchgraph"
	"qint/internal/storage"
)

// This file wires Q's single-writer mutation path into the durable storage
// engine (internal/storage). With Options.DataDir set, Open maps the newest
// published generation snapshot (catalog + built value-index segments +
// graph + view definitions) and replays the epoch WAL tail, and every
// subsequent write follows log-then-publish in commitLocked: the write's
// record is fsync'd into the WAL BEFORE the new state generation is
// published to readers, so any state a query could ever observe is already
// durable. A write whose append fails is rolled back and never published.
//
// The WAL logs mutation EFFECTS, not operations, in one record shape
// (walRecord): the tables that entered the catalog, every association edge
// the write added or merged into with its FINAL feature vector, and the
// weight delta. Replaying a source registration cannot re-run the schema
// matchers — they are code, re-registered by the caller after Open — so
// replay installs the edges verbatim (searchgraph.RestoreAssociationEdge).
// Feedback logs the weight delta the MIRA update produced, not the
// preference that caused it. Replay therefore needs no matchers, no MIRA,
// and no result sets, and reproduces the builder state exactly
// (durable_test.go pins restart ≡ rebuild).
//
// What is deliberately NOT logged:
//   - AddMatcher: matchers are code; re-registering installs only weights
//     that are still missing, so it converges with replayed feedback.
//   - Queries and views: Query is the lock-free read path and must not
//     fsync. View definitions and IDs persist via checkpoint snapshots
//     instead (Close checkpoints, so a clean shutdown loses nothing; a
//     crash loses only the views created or dropped since the last
//     checkpoint — their answers were pure reads — and the IDs handed out
//     since, which the next views may get again).
//   - The engine width (worker pools, execution slots): a property of the
//     machine, not state; a restored engine takes the restoring process's
//     GOMAXPROCS, and the catalog section carries no width.

// walKindMutation is the one WAL record kind (the storage layer treats kinds
// as opaque); its payload is a walRecord.
const walKindMutation byte = 1

// walTable is one table on the wire: the schema plus all rows.
type walTable struct {
	Source      string                `json:"source"`
	Name        string                `json:"name"`
	Attributes  []relstore.Attribute  `json:"attributes"`
	ForeignKeys []relstore.ForeignKey `json:"foreign_keys,omitempty"`
	Rows        [][]string            `json:"rows"`
}

// walAssoc is one association edge on the wire: canonical endpoints and the
// final feature vector, installed verbatim on replay.
type walAssoc struct {
	A        relstore.AttrRef `json:"a"`
	B        relstore.AttrRef `json:"b"`
	Features learning.Vector  `json:"features"`
}

// walRecord is the effect of one write, applied on replay in field order:
// the tables that entered the catalog, the association edges the write
// added or merged into (id order, final features), then the weight delta
// ("set"/"del"). Every part is optional; a write that changes none of them
// logs nothing.
type walRecord struct {
	Tables []walTable `json:"tables,omitempty"`
	Assocs []walAssoc `json:"assocs,omitempty"`
	searchgraph.WeightDelta
}

func (r walRecord) empty() bool {
	return len(r.Tables) == 0 && len(r.Assocs) == 0 && r.WeightDelta.Empty()
}

// snapMeta is the snapshot container's "meta" section: versioning plus the
// persistent view registry (view contents are a function of the graph).
// NextID is the ID the next view gets, so a deleted view's ID is not handed
// out again after a restart.
type snapMeta struct {
	Version int        `json:"version"`
	Views   []viewSnap `json:"views"`
	NextID  int64      `json:"next_id,omitempty"`
}

// viewSnap is one persistent view definition. Views are saved as
// (ID, keywords, k) and rematerialised on restore: their contents are a
// function of the graph, which is saved exactly. Snapshots written before
// IDs were persisted carry none; such a view gets its position as its ID,
// which is the ID the server used to give it.
type viewSnap struct {
	ID       *int64   `json:"id,omitempty"`
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
}

const snapMetaVersion = 1

// persistence is Q's attachment to a storage.Store: the checkpoint
// threshold and the background checkpointer folding the WAL into fresh
// generation snapshots. All store calls run under writerMu.
type persistence struct {
	store  *storage.Store
	limit  int64 // WAL bytes that trigger a background checkpoint; tests may set <0 = manual only
	closed bool  // set by Close: the store is closed and writes get ErrClosed

	kick     chan struct{} // nudges the checkpointer (non-blocking sends)
	stop     chan struct{}
	stopOnce sync.Once // Close may be called more than once
	wg       sync.WaitGroup

	// lastErr records a failure of the background checkpointer; the next
	// Checkpoint or Close surfaces it. Guarded by writerMu.
	lastErr error

	// snapViewsSig fingerprints the view registry the current snapshot
	// carries (it is the only snapshot-only state): a checkpoint with an
	// empty WAL and unchanged views has nothing to fold and is skipped, so
	// Close on an untouched instance does not rewrite the snapshot. Guarded
	// by writerMu.
	snapViewsSig string
	hasSnapshot  bool
}

// checkpointWALBytes is the WAL size at which the background checkpointer
// folds the log into a new generation snapshot.
const checkpointWALBytes = 1 << 20

// ErrClosed is returned by a write to a durable engine after Close: the
// write is rolled back, because it could no longer be logged.
var ErrClosed = errors.New("core: engine closed")

// Open opens (or initialises) the durable store at opts.DataDir and
// reconstructs Q from it: the newest published generation snapshot is
// loaded — catalog decoded from its binary sections, built value-index
// segments installed verbatim without rebuilding, graph with learned
// weights — then the WAL tail replays the mutations committed since, and
// the persistent views rematerialise. Matchers are code, not state:
// re-register them after Open, exactly as with Load.
//
// The returned Q logs every mutation to the WAL before publishing it and
// checkpoints in the background once the WAL passes 1 MiB
// (checkpointWALBytes). Call Close for a clean shutdown (it takes a
// final checkpoint, making the next Open a pure snapshot load).
func Open(opts Options) (*Q, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("core: Open requires Options.DataDir")
	}
	t0 := time.Now()
	st, err := storage.Open(opts.DataDir)
	if err != nil {
		return nil, err
	}
	q, err := openFrom(st, opts, t0)
	if err != nil {
		st.Close()
		return nil, err
	}
	return q, nil
}

// openFrom restores a Q from an opened store; t0 is when Open began.
func openFrom(st *storage.Store, opts Options, t0 time.Time) (*Q, error) {
	q := New(opts)
	snap, snapLoaded, err := st.Snapshot()
	if err != nil {
		return nil, err
	}
	if err := q.restore(snap, st.Records(), t0); err != nil {
		return nil, err
	}

	p := &persistence{store: st, limit: checkpointWALBytes, kick: make(chan struct{}, 1), stop: make(chan struct{})}
	p.hasSnapshot = snapLoaded
	p.snapViewsSig = q.viewsSigLocked()
	q.persist = p
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case <-p.stop:
				return
			case <-p.kick:
				q.writerMu.Lock()
				if err := q.checkpointLocked(); err != nil && p.lastErr == nil {
					p.lastErr = err
				}
				q.writerMu.Unlock()
			}
		}
	}()
	return q, nil
}

// restore rebuilds a freshly constructed Q from a checkpoint container
// (nil: start empty) plus the WAL records committed after it — Open's and
// Load's one restore path. The catalog is decoded from its binary sections
// with its built value-index segments installed verbatim, the graph from
// its binary section with its learned weights, and the records replay
// without re-logging. Only then are the unindexed tables indexed, the
// edges repriced and the state published, once each, and the persistent
// views rematerialised. A segments section in the retired QSEGb1 layout
// counts as absent: its tables are indexed from their rows with the rest.
// Each stage's time, from t0 on (when the caller began reading the
// container), goes to qint_recovery_stage_seconds_total.
func (q *Q) restore(snap *storage.Container, records []storage.Record, t0 time.Time) error {
	m := q.metrics
	t := m.recovered(recoverOpen, t0)
	var views []viewSnap
	var nextID int64
	if snap != nil {
		catSec, okCat := snap.Section("catalog")
		graphSec, okGraph := snap.Section("graph")
		metaSec, okMeta := snap.Section("meta")
		if !okCat || !okGraph || !okMeta {
			return fmt.Errorf("core: snapshot missing sections (have %v)", snap.SectionNames())
		}
		var meta snapMeta
		if err := json.Unmarshal(metaSec, &meta); err != nil {
			return fmt.Errorf("core: snapshot meta: %w", err)
		}
		if meta.Version != snapMetaVersion {
			return fmt.Errorf("core: unsupported snapshot meta version %d", meta.Version)
		}
		views, nextID = meta.Views, meta.NextID
		cat, err := relstore.LoadCatalog(catSec)
		if err != nil {
			return err
		}
		t = m.recovered(recoverCatalog, t)
		if segSec, ok := snap.Section("segments"); ok {
			if err := cat.LoadSegments(segSec); err != nil && !errors.Is(err, relstore.ErrRetiredSegments) {
				return err
			}
		}
		t = m.recovered(recoverSegments, t)
		graph, err := searchgraph.Load(graphSec)
		if err != nil {
			return err
		}
		t = m.recovered(recoverGraph, t)
		q.catalog = cat
		q.graph = graph
		for _, rel := range cat.Relations() {
			q.indexRelation(rel) // the keyword corpus is derived state
		}
		t = m.recovered(recoverIndex, t)
	}

	for _, rec := range records {
		if err := q.replayRecord(rec); err != nil {
			return fmt.Errorf("core: replay epoch %d: %w", rec.Epoch, err)
		}
	}
	q.writerMu.Lock()
	q.graph.RepriceEdges() // once for every replayed weight delta
	t = m.recovered(recoverReplay, t)
	// Tables the snapshot holds no segment for and every replayed table,
	// in one fan-out: replay reads no values.
	q.catalog.BuildValueIndex(q.width)
	st := q.publishLocked()
	q.writerMu.Unlock()
	t = m.recovered(recoverIndex, t)

	// Each view expands its saved keyword list into a fresh overlay and
	// materialises at its saved k, across the worker pool as a refresh
	// does; a restore is not a query, so qint_queries_total does not move.
	// The keyword list is taken verbatim: re-joining keywords into a query
	// string would corrupt any keyword containing a quote and drop empty
	// ones, and the saved k (not the default k) is what makes the round
	// trip exact. The view then rejoins the registry under its saved ID,
	// exempt from Options.MaxViews: a restart must not lose views a smaller
	// cap would refuse.
	restored := make([]*View, len(views))
	for i, vs := range views {
		id := int64(i)
		if vs.ID != nil {
			id = *vs.ID
		}
		if id < 0 || i > 0 && id <= restored[i-1].ID {
			return fmt.Errorf("core: restore view %v: ID %d is negative or does not ascend", vs.Keywords, id)
		}
		if err := checkKeywords(vs.Keywords); err != nil {
			return fmt.Errorf("core: restore view %v: %w", vs.Keywords, err)
		}
		k := vs.K
		if k <= 0 {
			k = defaultK
		}
		restored[i] = &View{ID: id, Keywords: vs.Keywords, K: k}
	}
	if err := runIndexed(len(restored), q.width, func(i int) error {
		v := restored[i]
		mat, err := q.materializeCached(st, v.Keywords, v.K, nil)
		if err != nil {
			return fmt.Errorf("core: restore view %v: %w", v.Keywords, err)
		}
		v.mat.Store(mat)
		return nil
	}); err != nil {
		return err
	}
	m.recovered(recoverViews, t)
	q.views = restored
	q.nextViewID = nextID
	if n := len(q.views); n > 0 && q.views[n-1].ID >= nextID {
		q.nextViewID = q.views[n-1].ID + 1
	}
	return nil
}

// replayRecord applies one committed WAL record to the builder state:
// tables, then associations, then the weight delta. Mutations here never
// re-log; repricing the edges for the replayed weights and publishing
// happen once, after the whole tail replays.
func (q *Q) replayRecord(rec storage.Record) error {
	if rec.Kind != walKindMutation {
		return fmt.Errorf("core: unknown WAL record kind %d", rec.Kind)
	}
	var p walRecord
	if err := json.Unmarshal(rec.Payload, &p); err != nil {
		return err
	}
	tables := make([]*relstore.Table, len(p.Tables))
	for i, wt := range p.Tables {
		t, err := relstore.NewTable(&relstore.Relation{
			Source:      wt.Source,
			Name:        wt.Name,
			Attributes:  wt.Attributes,
			ForeignKeys: wt.ForeignKeys,
		}, wt.Rows)
		if err != nil {
			return err
		}
		tables[i] = t
	}
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	if len(tables) > 0 {
		if err := q.addTablesLocked(tables...); err != nil {
			return err
		}
	}
	for _, a := range p.Assocs {
		q.graph.RestoreAssociationEdge(a.A, a.B, a.Features)
	}
	if !p.WeightDelta.Empty() {
		q.graph.ApplyWeightDelta(p.WeightDelta)
	}
	return nil
}

// logMutationLocked appends one write's record to the WAL — the
// log-then-publish step of commitLocked. When it returns nil the record is
// fsync'd; only then may the write be published. Callers hold writerMu and
// have checked q.persist. An empty record is not logged.
func (q *Q) logMutationLocked(rec walRecord) error {
	if rec.empty() {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("core: encode WAL record: %w", err)
	}
	if _, err := q.persist.store.Append(walKindMutation, data); err != nil {
		return err
	}
	if q.persist.limit >= 0 && q.persist.store.WALSize() >= q.persist.limit {
		select {
		case q.persist.kick <- struct{}{}:
		default: // a checkpoint is already pending
		}
	}
	return nil
}

func wireTables(tables []*relstore.Table) []walTable {
	out := make([]walTable, len(tables))
	for i, t := range tables {
		out[i] = walTable{
			Source:      t.Relation.Source,
			Name:        t.Relation.Name,
			Attributes:  t.Relation.Attributes,
			ForeignKeys: t.Relation.ForeignKeys,
			Rows:        t.Rows,
		}
	}
	return out
}

// Checkpoint folds the WAL into a fresh generation snapshot now (the
// background checkpointer calls the same path once the WAL passes the
// configured threshold). A no-op without a DataDir.
func (q *Q) Checkpoint() error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	return q.checkpointLocked()
}

func (q *Q) checkpointLocked() error {
	if q.persist == nil || q.persist.closed {
		return nil
	}
	if err := q.persist.lastErr; err != nil {
		q.persist.lastErr = nil
		return err
	}
	// Nothing to fold: the WAL is empty and the snapshot already carries
	// the current view definitions (the only snapshot-only state), so the
	// existing generation is exact. Keeps a cold open → close cycle from
	// rewriting a large snapshot it only just read.
	if q.persist.hasSnapshot && q.persist.store.WALSize() == 0 &&
		q.viewsSigLocked() == q.persist.snapViewsSig {
		return nil
	}
	t0 := time.Now()
	if err := q.persist.store.Publish(func(sa storage.SectionAdder) error {
		return q.writeSnapshotSections(sa)
	}); err != nil {
		return err
	}
	addSince(q.metrics.checkpointTime, t0)
	q.persist.hasSnapshot = true
	q.persist.snapViewsSig = q.viewsSigLocked()
	return nil
}

// viewsSigLocked fingerprints the persistent view registry — the meta
// section itself: IDs, keywords, k and the next ID — for the
// checkpoint-skip test above. Deleting a view and re-creating the same
// keywords changes it, so the new ID is checkpointed.
func (q *Q) viewsSigLocked() string {
	b, _ := json.Marshal(q.snapMeta()) // strings and integers always encode
	return string(b)
}

// snapMeta captures the view registry as the snapshot's meta section.
func (q *Q) snapMeta() snapMeta {
	q.viewsMu.Lock()
	defer q.viewsMu.Unlock()
	meta := snapMeta{Version: snapMetaVersion, NextID: q.nextViewID}
	for _, v := range q.views {
		meta.Views = append(meta.Views, viewSnap{ID: &v.ID, Keywords: v.Keywords, K: v.K})
	}
	return meta
}

// writeSnapshotSections streams the builder state into a generation
// snapshot container. Section order is fixed; every encoder is
// deterministic, so identical states produce identical snapshot bytes.
func (q *Q) writeSnapshotSections(sa storage.SectionAdder) error {
	meta := q.snapMeta()
	if err := sa.Section("meta", func(w io.Writer) error {
		return json.NewEncoder(w).Encode(meta)
	}); err != nil {
		return err
	}
	if err := sa.Section("catalog", q.catalog.SaveBinary); err != nil {
		return err
	}
	if err := sa.Section("segments", q.catalog.SaveSegments); err != nil {
		return err
	}
	return sa.Section("graph", q.graph.Save)
}

// WALEpoch returns the storage engine's last committed epoch (0 without a
// DataDir) — for tests and ops visibility.
func (q *Q) WALEpoch() uint64 {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	if q.persist == nil {
		return 0
	}
	return q.persist.store.Epoch()
}

// Close shuts persistence down cleanly: the background checkpointer stops,
// a final checkpoint folds the WAL (so the next Open is a pure snapshot
// load and no view definitions are lost), and the store closes. Afterwards
// queries still answer from the last published state, but every write
// returns ErrClosed. A Q without a DataDir closes trivially; closing twice
// is a no-op.
func (q *Q) Close() error {
	q.writerMu.Lock()
	p := q.persist
	q.writerMu.Unlock()
	if p == nil {
		return nil
	}
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	if p.closed {
		return nil
	}
	err := q.checkpointLocked()
	if cerr := p.store.Close(); err == nil {
		err = cerr
	}
	p.closed = true
	return err
}
