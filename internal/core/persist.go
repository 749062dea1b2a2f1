package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"qint/internal/relstore"
	"qint/internal/searchgraph"
)

// qSnapshot bundles the catalog, the search graph (including learned
// weights) and the persistent views' definitions. Views are saved as
// (keywords, k) and rematerialised on load — their contents are a function
// of the graph, which is saved exactly.
type qSnapshot struct {
	Version int             `json:"version"`
	Options Options         `json:"options"`
	Catalog json.RawMessage `json:"catalog"`
	Graph   json.RawMessage `json:"graph"`
	Views   []viewSnap      `json:"views"`
}

type viewSnap struct {
	Keywords []string `json:"keywords"`
	K        int      `json:"k"`
}

const qSnapshotVersion = 1

// Save writes the entire Q state (catalog, graph with learned weights,
// view definitions) as JSON. Matchers are code, not state — re-register
// them after loading.
func (q *Q) Save(w io.Writer) error {
	var catBuf, graphBuf bytes.Buffer
	if err := q.Catalog.Save(&catBuf); err != nil {
		return fmt.Errorf("core: save catalog: %w", err)
	}
	if err := q.Graph.Save(&graphBuf); err != nil {
		return fmt.Errorf("core: save graph: %w", err)
	}
	s := qSnapshot{
		Version: qSnapshotVersion,
		Options: q.opts,
		Catalog: json.RawMessage(catBuf.Bytes()),
		Graph:   json.RawMessage(graphBuf.Bytes()),
	}
	for _, v := range q.Views() {
		s.Views = append(s.Views, viewSnap{Keywords: v.Keywords, K: v.K})
	}
	return json.NewEncoder(w).Encode(s)
}

// Load reconstructs a Q instance saved with Save and rematerialises its
// views under the loaded (learned) weights. Matchers must be re-registered
// by the caller before any new alignment work; loading does not require
// them.
func Load(r io.Reader) (*Q, error) {
	var s qSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if s.Version != qSnapshotVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", s.Version)
	}
	graph, err := searchgraph.Load(bytes.NewReader(s.Graph))
	if err != nil {
		return nil, err
	}
	q := New(s.Options)
	// Reload the catalog at the effective shard count (the wire form is
	// shard-agnostic) and restore the settings New applied to the catalog it
	// is replacing; index segments rebuild lazily on first use.
	cat, err := relstore.LoadCatalogSharded(bytes.NewReader(s.Catalog), q.opts.Shards)
	if err != nil {
		return nil, err
	}
	cat.SetParallelism(q.opts.Parallelism)
	cat.InstrumentExec(&q.metrics.exec) // the loaded catalog replaces the instrumented one
	q.Catalog = cat
	q.Graph = graph
	// Rebuild the keyword corpus from the catalog (it is derived state).
	for _, rel := range cat.Relations() {
		q.indexRelation(rel)
	}
	// Publish the loaded state so queries (which read the published
	// snapshot, never the builder) see it. Legacy persisted graphs may
	// carry keyword and value nodes from the pre-overlay design; overlays
	// reuse such nodes where present and their stale edges stay disabled.
	q.writerMu.Lock()
	q.publishLocked()
	q.writerMu.Unlock()
	// Recreate views: each expands its saved keyword list into a fresh
	// overlay over the loaded graph and materialises at its saved k.
	// QueryKeywords takes the list verbatim — re-joining keywords into a
	// query string would corrupt any keyword containing a quote (the quote
	// would end the phrase early) and silently drop empty keywords, and
	// materialising at the k the view was saved with (not the loaded
	// Options.K) is what makes the round-trip exact.
	for _, vs := range s.Views {
		if _, err := q.QueryKeywords(vs.Keywords, vs.K); err != nil {
			return nil, fmt.Errorf("core: load view %v: %w", vs.Keywords, err)
		}
	}
	return q, nil
}
