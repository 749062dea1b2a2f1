package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"qint/internal/pool"
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
// The WAL logs mutation EFFECTS, not operations, in one binary record
// shape (walRecord, walrecord.go): the tables that entered the catalog,
// every association edge the write added or merged into with its FINAL
// feature vector, and the weight delta. A restore decodes the records
// beside the snapshot's sections and applies them in epoch order.
// Replaying a source registration cannot re-run the schema
// matchers — they are code, re-registered by the caller after Open — so
// replay installs the edges verbatim (searchgraph.RestoreAssociationEdge).
// Feedback logs the weight delta the MIRA update produced, not the
// preference that caused it. Replay therefore needs no matchers, no MIRA,
// and no result sets, and reproduces the builder state exactly
// (the reference oracle, TestEngineMatchesReference, pins restart ≡
// rebuild).
//
// What is deliberately NOT logged:
//   - AddMatcher: matchers are code; re-registering installs only weights
//     that are still missing, so it converges with replayed feedback.
//   - Queries and views: Query is the lock-free read path and must not
//     fsync. View definitions and IDs persist via checkpoint snapshots
//     instead (Close checkpoints, so a clean shutdown loses nothing; a
//     crash loses only the views created or dropped since the last
//     checkpoint — their answers were pure reads — and the IDs handed out
//     since, which the next views may get again; the reference oracle's
//     crashKeepsUncheckpointedViews states this contract).
//   - The engine width (worker pools): a property of the machine, not
//     state; a restored engine takes the restoring process's GOMAXPROCS,
//     and the catalog section carries no width.

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
	if err := q.restore(snap, st.TakeRecords(), t0); err != nil {
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
// Load's one restore path. The meta and catalog sections decode first.
// Then two lanes run at once, at every engine width. The calling goroutine
// installs the value-index segments into the catalog. A second goroutine
// enters the catalog's schemas into the keyword corpus, decodes the graph
// from its binary section with its learned weights, then the WAL records,
// then indexes the tables they carry, the last two on the worker pool
// across all but one of the engine's width. Once the records have
// decoded, the calling goroutine applies them in epoch order without
// re-logging, beside that indexing, since replay reads no values. Only
// then are the edges repriced, the replayed tables' segments installed,
// the tables the snapshot holds no segment for indexed and the state
// published, once each; the persistent views then rejoin the registry and
// rematerialise in one refresh (refreshLocked), as after a write. A
// segments section in the retired QSEGb1 layout counts as absent: its
// tables are indexed from their rows with the rest. Each stage's time,
// from t0 on (when the caller began reading the container), goes to
// qint_recovery_stage_seconds_total. restore owns records: the decoded
// tail aliases their payloads.
func (q *Q) restore(snap *storage.Container, records []storage.Record, t0 time.Time) error {
	m := q.metrics
	t := m.recovered(recoverOpen, t0)
	var views []viewSnap
	var nextID int64
	loadSegments := func() error { return nil }
	loadGraph := func() error { return nil }
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
		q.catalog = cat
		segSec, okSeg := snap.Section("segments")
		loadSegments = func() error {
			if okSeg {
				if err := cat.LoadSegments(segSec); err != nil && !errors.Is(err, relstore.ErrRetiredSegments) {
					return err
				}
			}
			return nil
		}
		loadGraph = func() error {
			for _, rel := range cat.Relations() {
				q.indexRelation(rel) // the keyword corpus is derived state
			}
			g, err := searchgraph.Load(graphSec)
			q.graph = g
			return err
		}
	}
	t = m.recovered(recoverCatalog, t)

	var (
		graphErr error
		tail     []walRecord
		recErr   error // the decode error that ends tail, if any
		segs     relstore.Segments
	)
	helpers := max(q.width-1, 1)
	decoded := make(chan struct{})
	var indexing sync.WaitGroup
	indexing.Add(1)
	go func() {
		defer indexing.Done()
		graphErr = loadGraph()
		tail, recErr = decodeTail(records, helpers)
		close(decoded)
		if graphErr != nil || recErr != nil {
			return // restore fails; nothing would read the segments
		}
		var tables []*relstore.Table
		for _, rec := range tail {
			tables = append(tables, rec.Tables...)
		}
		segs = relstore.BuildSegments(tables, helpers)
	}()
	err := loadSegments()
	<-decoded
	t = m.recovered(recoverDecode, t)
	if err == nil {
		err = graphErr
	}
	if err != nil {
		indexing.Wait()
		return err
	}

	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	err = q.replay(tail, records, recErr)
	t = m.recovered(recoverReplay, t)
	indexing.Wait()
	if err != nil {
		return err
	}
	// The replayed tables' segments, then, in one fan-out, the tables the
	// snapshot holds no segment for.
	q.catalog.AddSegments(segs)
	q.catalog.BuildValueIndex(q.width)
	st := q.publishLocked()
	t = m.recovered(recoverIndex, t)

	// Each view rejoins the registry under its saved ID with its saved
	// keyword list and k, and then materialises in the refresh that ends
	// every write (refreshLocked); a restore is not a query, so
	// qint_queries_total does not move. The keyword list is taken
	// verbatim: re-joining keywords into a query string would corrupt any
	// keyword containing a quote and drop empty ones, and the saved k (not
	// the default k) is what makes the round trip exact. A restored view is
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
	q.views = restored
	q.nextViewID = nextID
	if n := len(q.views); n > 0 && q.views[n-1].ID >= nextID {
		q.nextViewID = q.views[n-1].ID + 1
	}
	if err := q.refreshLocked(st); err != nil {
		return fmt.Errorf("core: restore %w", err)
	}
	m.recovered(recoverViews, t)
	return nil
}

// decodeTail decodes WAL records on the worker pool, width wide. It
// returns the records up to the lowest epoch that fails to decode, with
// that failure's error, so that a replay applies what a serial one would
// have applied before meeting it.
func decodeTail(records []storage.Record, width int) ([]walRecord, error) {
	tail := make([]walRecord, len(records))
	errs := make([]error, len(records))
	pool.Run(len(records), width, func(i int) error {
		tail[i], errs[i] = decodeRecord(records[i])
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return tail[:i], fmt.Errorf("core: replay epoch %d: %w", records[i].Epoch, err)
		}
	}
	return tail, nil
}

// replay applies the decoded tail in epoch order, then recErr, the decode
// error that ended the tail, if any; records are the tail's WAL records.
// Callers hold writerMu. The graph makes room for the tail's edges up
// front. If the tail changes the weights, no edge is priced as it is
// installed: RepriceEdges prices every edge once at the end.
func (q *Q) replay(tail []walRecord, records []storage.Record, recErr error) error {
	edges := 0
	for _, rec := range tail {
		if !rec.WeightDelta.Empty() {
			q.graph.DeferPricing()
		}
		edges += len(rec.Assocs)
	}
	if edges > 0 {
		q.graph.GrowEdges(edges)
	}
	for i, rec := range tail {
		if err := q.applyRecord(rec); err != nil {
			return fmt.Errorf("core: replay epoch %d: %w", records[i].Epoch, err)
		}
	}
	if recErr != nil {
		return recErr
	}
	q.graph.RepriceEdges() // once for every replayed weight delta
	return nil
}

// decodeRecord decodes one committed WAL record. Its strings alias the
// payload, which restore owns and never modifies.
func decodeRecord(rec storage.Record) (walRecord, error) {
	switch rec.Kind {
	case walKindMutation:
		return decodeWALRecord(rec.Payload)
	case walKindJSON:
		return walRecord{}, errJSONWALRecord
	}
	return walRecord{}, fmt.Errorf("unknown WAL record kind %d", rec.Kind)
}

// applyRecord applies one decoded WAL record to the builder state: tables,
// then associations, then the weight delta. Callers hold writerMu.
// Mutations here never re-log; repricing the edges for the replayed
// weights and publishing happen once, after the whole tail applies. The
// graph takes the record's feature vectors over.
func (q *Q) applyRecord(rec walRecord) error {
	if len(rec.Tables) > 0 {
		if err := q.addTablesLocked(rec.Tables...); err != nil {
			return err
		}
	}
	for _, a := range rec.Assocs {
		q.graph.RestoreAssociationEdge(a.A, a.B, a.Features)
	}
	if !rec.WeightDelta.Empty() {
		q.graph.ApplyWeightDelta(rec.WeightDelta)
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
	if _, err := q.persist.store.Append(walKindMutation, encodeWALRecord(rec)); err != nil {
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
