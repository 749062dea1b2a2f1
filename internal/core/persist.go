package core

import (
	"fmt"
	"io"
	"time"

	"qint/internal/storage"
)

// Save writes the entire Q state (catalog with its built value-index
// segments, graph with learned weights, view definitions) as a checkpoint
// container: the same bytes Checkpoint publishes as gen-<epoch>.snap.
// Matchers are code, not state — re-register them after loading.
func (q *Q) Save(w io.Writer) error {
	q.writerMu.Lock()
	defer q.writerMu.Unlock()
	cw, err := storage.NewContainerWriter(w)
	if err != nil {
		return err
	}
	if err := q.writeSnapshotSections(cw); err != nil {
		return err
	}
	return cw.Finish()
}

// Load reconstructs a Q instance from a container written by Save (or a
// data directory's gen-<epoch>.snap) and rematerialises its views under the
// loaded (learned) weights. The result is not durable: to persist, use Open
// with Options.DataDir instead, which Load rejects. Matchers must be
// re-registered by the caller before any new alignment work; loading does
// not require them.
func Load(r io.Reader, opts Options) (*Q, error) {
	if opts.DataDir != "" {
		return nil, fmt.Errorf("core: Load does not attach a DataDir; use Open")
	}
	t0 := time.Now()
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	snap, err := storage.OpenContainer(data)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	q := New(opts)
	if err := q.restore(snap, nil, t0); err != nil {
		return nil, err
	}
	return q, nil
}
