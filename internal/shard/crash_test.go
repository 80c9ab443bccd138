package shard

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/skyserver"
)

// buildDurableCluster is newHTTPCluster with per-shard durability: every
// shard server owns a WAL directory and snapshot path under dir, and the
// coordinator persists its router state and routing offsets next to them.
// Each call starts fresh listeners, as restarted processes would bind. The
// returned servers and listeners let the test crash individual shards.
func buildDurableCluster(t *testing.T, n int, dir string) (*Coordinator, []*serve.Server, []*httptest.Server) {
	t.Helper()
	db := testDB()
	servers := make([]*serve.Server, n)
	listeners := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		cfg := shardConfig(db, 0)
		cfg.SnapshotPath = filepath.Join(dir, "shard-"+strconv.Itoa(i)+".json")
		cfg.WALDir = filepath.Join(dir, "wal", "shard-"+strconv.Itoa(i))
		cfg.WALSegmentBytes = 4096
		servers[i], listeners[i] = startShard(t, cfg)
		urls[i] = listeners[i].URL
	}
	coord := newCoordinator(t, urls, Config{RouterStatePath: filepath.Join(dir, "router.json")})
	return coord, servers, listeners
}

// A sharded deployment killed mid-run must recover shard by shard: every
// shard replays its own WAL, the restarted coordinator restores the sticky
// routing and its persisted offsets, and the merged /report equals the batch
// miner over everything acknowledged before the crash — relation-set
// sharding stays exact across a crash.
func TestShardedCrashRecovery(t *testing.T) {
	recs := synthRecords(1000, 42)
	dir := t.TempDir()

	coord, servers, listeners := buildDurableCluster(t, 2, dir)
	ts := httptest.NewServer(coord.Handler())
	// Flush delivers everything to its owning shard (each shard's WAL has
	// fsynced its slice — a shard acknowledges a forwarded batch only after
	// its durability barrier) and persists the router assignment plus the
	// routing offsets.
	ingestAndFlush(t, ts.URL, recs)
	ts.Close()

	stateData, err := os.ReadFile(filepath.Join(dir, "router.json.offsets"))
	if err != nil {
		t.Fatalf("flush did not persist routing offsets: %v", err)
	}
	var st struct {
		Shards  int `json:"shards"`
		Offsets []struct {
			Name      string `json:"name"`
			Forwarded int64  `json:"forwarded"`
		} `json:"offsets"`
	}
	if err := json.Unmarshal(stateData, &st); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, o := range st.Offsets {
		sum += o.Forwarded
	}
	if st.Shards != 2 || sum != int64(len(recs)) {
		t.Fatalf("persisted offsets cover %d records over %d shards, want %d over 2:\n%s", sum, st.Shards, len(recs), stateData)
	}

	// Crash every shard process: no final epochs, no snapshots — only the
	// WALs (and the coordinator's sidecar) survive — and its listener goes
	// away. The coordinator object is simply abandoned, as a killed process
	// would abandon it.
	for i, s := range servers {
		s.Abort()
		listeners[i].Close()
	}

	// Restart the whole topology against the same directory tree, behind new
	// listeners. Each shard replays its full WAL (no snapshot was ever
	// written); the coordinator restores the assignment and offset base.
	coord2, servers2, _ := buildDurableCluster(t, 2, dir)
	defer func() {
		if err := coord2.Close(); err != nil {
			t.Errorf("close after recovery: %v", err)
		}
	}()
	var replayed int64
	for _, s := range servers2 {
		replayed += int64(s.Registry().Snapshot()["skyaccess_serve_ingest_processed_total"])
	}
	if replayed != int64(len(recs)) {
		t.Fatalf("shards replayed %d records, want %d — acknowledged records were lost", replayed, len(recs))
	}
	if off := coord2.Offsets(); off[0]+off[1] != int64(len(recs)) {
		t.Fatalf("restored routing offsets %v do not cover %d records", off, len(recs))
	}

	ts2 := httptest.NewServer(coord2.Handler())
	defer ts2.Close()
	mustFlush(t, ts2.URL)

	batch := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(testDB())}).MineRecords(recs)
	var want bytes.Buffer
	if err := report.Write(&want, batch, report.Text, report.Options{}); err != nil {
		t.Fatal(err)
	}
	code, _, got := get(t, ts2.URL+"/report?format=text")
	if code != 200 {
		t.Fatalf("merged report status %d", code)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("merged report after sharded crash recovery differs from batch run.\nrecovered:\n%s\nbatch:\n%s", got, want.Bytes())
	}
}
