package serve

import (
	"bytes"
	"encoding/gob"
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

// snapshotVersion is the format WriteSnapshot writes: snapshotMagic, then
// the Snapshot gob-encoded, neighbour graph included. Version 1 — the
// Snapshot as indented JSON, without a graph — is still read.
const (
	snapshotVersion = 2
	snapshotMagic   = "\x89skyaccess-snapshot\n"
)

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
	// Graph is the distance substrate's eps-neighbour graph, its slots
	// named by Mining's item indices (absent before the first DBSCAN epoch;
	// never in a version-1 file).
	Graph *core.GraphState `json:"-"`
}

// encodeSnapshot renders a snapshot in the current format.
func encodeSnapshot(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot parses a snapshot file: the current gob format behind
// snapshotMagic, or version 1's JSON. Arbitrary bytes give an error or a
// Snapshot; the graph section is only validated when it is installed.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if rest, ok := bytes.CutPrefix(data, []byte(snapshotMagic)); ok {
		if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(&snap); err != nil {
			return nil, err
		}
		if snap.Version != snapshotVersion {
			return nil, fmt.Errorf("binary snapshot has version %d, want %d", snap.Version, snapshotVersion)
		}
		return &snap, nil
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.Version != 1 {
		return nil, fmt.Errorf("JSON snapshot has version %d, want 1", snap.Version)
	}
	return &snap, nil
}

// WriteSnapshot atomically persists the current state: encode to a
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
	// epochMu keeps every miner on the shared substrate from reclustering
	// while its graph and the drift state are read.
	s.epochMu.Lock()
	snap.Graph = s.inc.ExportGraph()
	snap.Traffic = s.exportTraffic()
	s.epochMu.Unlock()
	s.snapMu.Unlock()
	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
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
	s.snapBytes.Set(float64(len(data)))
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
// offset and then install its graph before the anchoring epoch runs, with
// the registry generation the restore left (the graph's lists are valid
// against it). A missing file is not an error — the server simply starts
// empty (nil, 0, nil).
func (s *Server) restoreSnapshot(path string) (*Snapshot, uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	// Registry first: re-extraction of the representatives must see the
	// exact access(a) state the areas were mined under.
	s.miner.Stats().RestoreSnapshot(snap.Registry)
	gen := s.statsGeneration()
	// The global and class restores re-extract through the server's own
	// pipeline, so a text shared by several miners is extracted once; the
	// representatives must not count toward the memo's probation.
	resume := s.pipe.Cache.SuspendProbation()
	defer resume()
	if err := s.inc.RestoreState(snap.Mining, s.pipe); err != nil {
		return nil, 0, fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	if err := s.restoreTraffic(snap.Traffic); err != nil {
		return nil, 0, fmt.Errorf("serve: snapshot %s: traffic: %w", path, err)
	}
	if snap.Pipeline != nil {
		s.mu.Lock()
		s.cum = *snap.Pipeline
		s.processed = snap.Processed
		s.mu.Unlock()
	}
	s.accepted.Store(snap.Accepted)
	s.epochs.Store(snap.Epochs)
	return snap, gen, nil
}

// installGraph hands the snapshot's neighbour graph to the substrate, so
// the anchoring epoch rescans only stale and new slots. A section that does
// not fit the restored state is counted by reason and dropped: the epoch
// then rebuilds the graph, as without one.
func (s *Server) installGraph(gs *core.GraphState, since uint64) {
	n, fallback := s.inc.InstallGraph(gs, since)
	if fallback != "" {
		s.graphFallbacks[fallback].Inc()
		return
	}
	s.graphInstalled.Set(float64(n))
}
