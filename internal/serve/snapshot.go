package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/qlog"
	"repro/internal/schema"
)

// snapshotVersion guards against loading a snapshot written by an
// incompatible build.
const snapshotVersion = 1

// Snapshot is the on-disk service state: the access(a) registry first
// (restore order matters — representatives are re-extracted under it), then
// one representative statement per distinct area with accumulated weights
// and users, plus the cumulative pipeline statistics and ingest counters.
type Snapshot struct {
	Version   int                   `json:"version"`
	SavedAt   time.Time             `json:"saved_at"`
	Accepted  int64                 `json:"accepted"`
	Processed int64                 `json:"processed"`
	Epochs    int64                 `json:"epochs"`
	Pipeline  *qlog.Stats           `json:"pipeline"`
	Registry  *schema.StatsSnapshot `json:"registry"`
	Mining    *core.State           `json:"mining"`
	// WALOffset is the WAL position this snapshot covers: every record
	// below it is folded into Mining/Registry, so restart replays the log
	// from here. Processing order equals WAL append order (single pump,
	// admission under one mutex), so the processed count IS the offset.
	WALOffset uint64 `json:"wal_offset,omitempty"`
	// Traffic is the traffic-mining subsystem's state (absent when traffic
	// mining is off — classless snapshots are unchanged).
	Traffic *TrafficSnapshot `json:"traffic,omitempty"`
}

// WriteSnapshot atomically persists the current state: marshal to a
// temporary file in the target directory, fsync, rename, fsync the parent
// directory (without that last step the rename itself could be lost in a
// crash, resurrecting the previous snapshot against a compacted WAL). A
// crash mid-write leaves the previous snapshot intact.
func (s *Server) WriteSnapshot(path string) error {
	// snapMu excludes a mid-batch pump: the miner state exported here must
	// cover exactly the records the processed count says it does.
	s.snapMu.Lock()
	snap := &Snapshot{
		Version:   snapshotVersion,
		SavedAt:   time.Now().UTC(),
		Accepted:  s.accepted.Load(),
		Processed: s.processedCount(),
		Epochs:    s.epochs.Load(),
		Pipeline:  s.statsSnapshot(),
		Registry:  s.miner.Stats().Snapshot(),
		Mining:    s.inc.ExportState(),
	}
	snap.WALOffset = uint64(snap.Processed)
	snap.Traffic = s.exportTraffic()
	s.snapMu.Unlock()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// The snapshot now durably covers everything below WALOffset: those
	// segments are cold, so the WAL may drop parse failures and dedupe
	// duplicates in them.
	if s.wal != nil {
		s.wal.SetCompactFloor(snap.WALOffset)
		if _, err := s.wal.Compact(); err != nil {
			return fmt.Errorf("serve: WAL compaction: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory, making renames within it crash-durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// restoreSnapshot loads state written by WriteSnapshot, returning the
// decoded snapshot so NewServer can replay the WAL tail past its covered
// offset before the anchoring epoch runs. A missing file is not an error —
// the server simply starts empty (nil, nil).
func (s *Server) restoreSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("serve: corrupt snapshot %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("serve: snapshot %s has version %d, want %d", path, snap.Version, snapshotVersion)
	}
	// Registry first: re-extraction of the representatives must see the
	// exact access(a) state the areas were mined under.
	s.miner.Stats().RestoreSnapshot(snap.Registry)
	// The global and class restores re-extract through the server's own
	// pipeline, so a text shared by several miners is extracted once; the
	// representatives must not count toward the memo's probation.
	resume := s.pipe.Cache.SuspendProbation()
	defer resume()
	if err := s.inc.RestoreState(snap.Mining, s.pipe); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	if err := s.restoreTraffic(snap.Traffic); err != nil {
		return nil, fmt.Errorf("serve: snapshot %s: traffic: %w", path, err)
	}
	if snap.Pipeline != nil {
		s.mu.Lock()
		s.cum = *snap.Pipeline
		s.processed = snap.Processed
		s.mu.Unlock()
	}
	s.accepted.Store(snap.Accepted)
	s.epochs.Store(snap.Epochs)
	return &snap, nil
}
