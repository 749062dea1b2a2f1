package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// manifestName is the fixed name of the manifest file inside a data
// directory.
const manifestName = "MANIFEST"

const manifestVersion = 1

// manifest is the single source of truth for a data directory: which
// generation snapshot is current, the epoch it covers, and the WAL file
// carrying mutations committed since. It is only ever replaced via
// WriteFileAtomic, after everything it names is already durable.
type manifest struct {
	Version  int    `json:"version"`
	Epoch    uint64 `json:"epoch"`    // epoch covered by Snapshot ("" → 0)
	Snapshot string `json:"snapshot"` // gen-<epoch>.snap, or "" before any checkpoint
	WAL      string `json:"wal"`      // wal-<epoch>.log
}

// Store manages one durable data directory: the manifest, the current
// generation snapshot and the live WAL. It is storage-only — record kinds
// and snapshot sections are opaque; the engine (internal/core) defines
// them. Append/Publish must be serialised by the caller (they run under
// the engine's single-writer lock).
type Store struct {
	dir   string
	man   manifest
	wal   *WAL
	tail  []Record // committed records replayed at Open
	epoch uint64   // last committed epoch (manifest epoch + appended records)
}

// Open opens (or initialises) a data directory. On an empty directory it
// creates a fresh manifest with no snapshot and an empty WAL; on an
// existing one it loads the manifest, verifies the snapshot it names and
// replays the WAL tail, truncating a torn final record. The committed
// tail is available via Records; the snapshot bytes via Snapshot.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	manPath := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(manPath)
	switch {
	case os.IsNotExist(err):
		// Fresh directory: epoch 0, no snapshot, empty WAL, then commit
		// the manifest naming them. Ordering matters — the WAL exists
		// before any manifest names it.
		s.man = manifest{Version: manifestVersion, Epoch: 0, WAL: walName(0)}
		wal, err := CreateWAL(filepath.Join(dir, s.man.WAL))
		if err != nil {
			return nil, err
		}
		s.wal = wal
		if err := s.writeManifest(); err != nil {
			wal.Close()
			return nil, err
		}
	case err != nil:
		return nil, fmt.Errorf("storage: open %s: %w", dir, err)
	default:
		if err := json.Unmarshal(raw, &s.man); err != nil {
			return nil, fmt.Errorf("storage: %s: %w", manPath, err)
		}
		if s.man.Version != manifestVersion {
			return nil, fmt.Errorf("storage: unsupported manifest version %d", s.man.Version)
		}
		wal, tail, err := OpenWAL(filepath.Join(dir, s.man.WAL))
		if err != nil {
			return nil, err
		}
		s.wal = wal
		s.tail = tail
	}
	s.epoch = s.man.Epoch + uint64(len(s.tail))
	return s, nil
}

// Snapshot returns the current generation snapshot as a verified
// container, or (nil, false) when no checkpoint has been published yet.
func (s *Store) Snapshot() (*Container, bool, error) {
	if s.man.Snapshot == "" {
		return nil, false, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, s.man.Snapshot))
	if err != nil {
		return nil, false, fmt.Errorf("storage: read snapshot: %w", err)
	}
	c, err := OpenContainer(data)
	if err != nil {
		return nil, false, fmt.Errorf("storage: snapshot %s: %w", s.man.Snapshot, err)
	}
	return c, true, nil
}

// Records returns the committed WAL tail replayed at Open — the mutations
// to apply on top of the snapshot — unless TakeRecords has taken it.
func (s *Store) Records() []Record { return s.tail }

// TakeRecords returns the committed WAL tail, as Records does, and forgets
// it, so the store does not pin the payloads once the engine has applied
// them. The caller owns the records.
func (s *Store) TakeRecords() []Record {
	tail := s.tail
	s.tail = nil
	return tail
}

// Epoch returns the last committed epoch: the snapshot's epoch plus every
// record committed since.
func (s *Store) Epoch() uint64 { return s.epoch }

// SnapshotEpoch returns the epoch covered by the current snapshot. Only
// tests call it: core's TestRestoreRebuildsRetiredSegments and
// TestFailedOpenJoinsGoroutines name the snapshot file with it.
func (s *Store) SnapshotEpoch() uint64 { return s.man.Epoch }

// WALSize returns the live WAL's byte size — the checkpoint trigger.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// WALPath returns the current WAL file's path. Only tests call it: core's
// TestDurableCrashInjection truncates the file to simulate torn writes, and
// TestOpenRefusesJSONRecord and TestReplayNamesLowestEpoch rewrite it.
func (s *Store) WALPath() string { return s.wal.Path() }

// Append commits one mutation record: it is stamped with the next epoch,
// framed, CRC'd, written and fsync'd. When Append returns nil the
// mutation is durable — the engine publishes it to readers only then
// (log-then-publish).
func (s *Store) Append(kind byte, payload []byte) (uint64, error) {
	epoch := s.epoch + 1
	if err := s.wal.Append(Record{Epoch: epoch, Kind: kind, Payload: payload}); err != nil {
		return 0, err
	}
	s.epoch = epoch
	return epoch, nil
}

// Publish folds the WAL into a new generation snapshot: write adds the
// snapshot's sections to a temp file, which is fsync'd and atomically
// renamed to gen-<epoch>.snap; a fresh empty WAL is created; and only then
// is the manifest atomically replaced to name both. A crash at any step
// leaves the previous (snapshot, WAL) pair complete and current. The old
// generation's files are removed last — a crash before the removal leaves
// stray files that are simply ignored.
func (s *Store) Publish(write func(SectionAdder) error) error {
	epoch := s.epoch
	snapName := fmt.Sprintf("gen-%d.snap", epoch)
	err := WriteFileAtomic(filepath.Join(s.dir, snapName), func(w io.Writer) error {
		cw, err := NewContainerWriter(w)
		if err != nil {
			return err
		}
		if err := write(cw.sectionWriter()); err != nil {
			return err
		}
		return cw.Finish()
	})
	if err != nil {
		return err
	}
	if s.man.Epoch == epoch && s.man.WAL == walName(epoch) {
		// Publish at an unchanged epoch (no records appended since the last
		// fold — e.g. a checkpoint persisting new view definitions, which
		// are snapshot-only state). The current WAL is empty and already
		// named by the manifest, so the atomically-replaced snapshot is the
		// whole change; the manifest needs rewriting only the first time (a
		// fresh store's manifest names no snapshot yet).
		if s.man.Snapshot != snapName {
			oldMan := s.man
			s.man.Snapshot = snapName
			if err := s.writeManifest(); err != nil {
				os.Remove(filepath.Join(s.dir, snapName))
				s.man = oldMan
				return err
			}
		}
		syncDir(s.dir)
		return nil
	}
	newWAL, err := CreateWAL(filepath.Join(s.dir, walName(epoch)))
	if err != nil {
		return err
	}
	oldMan, oldWAL := s.man, s.wal
	s.man = manifest{Version: manifestVersion, Epoch: epoch, Snapshot: snapName, WAL: walName(epoch)}
	if err := s.writeManifest(); err != nil {
		// The new snapshot and WAL are orphans; the old manifest still
		// names a complete generation. Roll back in memory.
		newWAL.Close()
		os.Remove(filepath.Join(s.dir, snapName))
		os.Remove(filepath.Join(s.dir, walName(epoch)))
		s.man = oldMan
		return err
	}
	s.wal = newWAL
	s.tail = nil
	oldWAL.Close()
	if oldMan.Snapshot != "" && oldMan.Snapshot != snapName {
		os.Remove(filepath.Join(s.dir, oldMan.Snapshot))
	}
	if oldMan.WAL != s.man.WAL {
		os.Remove(filepath.Join(s.dir, oldMan.WAL))
	}
	syncDir(s.dir)
	return nil
}

// Close closes the live WAL. The store must not be used afterwards.
func (s *Store) Close() error { return s.wal.Close() }

func (s *Store) writeManifest() error {
	return WriteFileAtomic(filepath.Join(s.dir, manifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		return enc.Encode(s.man)
	})
}

func walName(epoch uint64) string { return fmt.Sprintf("wal-%d.log", epoch) }

// SectionAdder is the narrow interface Publish hands to the engine's
// snapshot writer: add named sections, in order.
type SectionAdder interface {
	Section(name string, write func(io.Writer) error) error
}

// sectionWriter adapts ContainerWriter to SectionAdder (hiding Finish,
// which Publish calls itself).
func (cw *ContainerWriter) sectionWriter() SectionAdder { return addOnly{cw} }

type addOnly struct{ cw *ContainerWriter }

func (a addOnly) Section(name string, write func(io.Writer) error) error {
	return a.cw.Section(name, write)
}
