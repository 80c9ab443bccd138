package shard

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/skyserver"
)

// buildDurableCluster is newInProcessCluster with per-shard durability:
// every shard server owns a WAL directory and snapshot path under dir, and
// the coordinator persists its router state and routing offsets next to
// them. The returned servers let the test crash individual shards (Abort).
func buildDurableCluster(t *testing.T, n int, dir string) (*Coordinator, []*serve.Server) {
	t.Helper()
	db := testDB()
	stats := seededStats(db)
	tcache := &extract.TemplateCache{}
	router := NewRouter(n, skyserver.Schema(), tcache, 0)
	nodes := make([]Node, n)
	servers := make([]*serve.Server, n)
	for i := 0; i < n; i++ {
		s, err := serve.NewServer(serve.Config{
			Miner:           core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: stats},
			Templates:       tcache,
			BatchSize:       64,
			EpochAreas:      256,
			SnapshotPath:    filepath.Join(dir, "shard-"+strconv.Itoa(i)+".json"),
			WALDir:          filepath.Join(dir, "wal", "shard-"+strconv.Itoa(i)),
			WALSegmentBytes: 4096,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		nodes[i] = NewLocalNode("shard-"+strconv.Itoa(i), s)
	}
	coord, err := NewCoordinator(Config{
		Router:          router,
		Nodes:           nodes,
		QueueSize:       512,
		BatchSize:       64,
		HealthInterval:  time.Second,
		RouterStatePath: filepath.Join(dir, "router.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord, servers
}

// A sharded deployment killed mid-run must recover shard by shard: every
// shard replays its own WAL, the restarted coordinator restores the sticky
// routing and its persisted offsets, and the merged /report equals the batch
// miner over everything acknowledged before the crash — relation-set
// sharding stays exact across a crash.
func TestShardedCrashRecovery(t *testing.T) {
	recs := synthRecords(1000, 42)
	dir := t.TempDir()

	coord, servers := buildDurableCluster(t, 2, dir)
	ts := httptest.NewServer(coord.Handler())
	for lo := 0; lo < len(recs); lo += 100 {
		hi := lo + 100
		if hi > len(recs) {
			hi = len(recs)
		}
		postUntilAccepted(t, ts.URL, recs[lo:hi])
	}
	// Flush delivers everything to its owning shard (each shard's WAL has
	// fsynced its slice — LocalNode ingest returns only after the barrier)
	// and persists the router assignment plus the routing offsets.
	mustFlush(t, ts.URL)
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

	// Crash every shard: no final epochs, no snapshots — only the WALs (and
	// the coordinator's sidecar) survive. The coordinator object is simply
	// abandoned, as a killed process would abandon it.
	for _, s := range servers {
		s.Abort()
	}

	// Restart the whole topology against the same directory tree. Each shard
	// replays its full WAL (no snapshot was ever written); the coordinator
	// restores the assignment and offset base.
	coord2, servers2 := buildDurableCluster(t, 2, dir)
	defer func() {
		if err := coord2.Close(); err != nil {
			t.Errorf("close after recovery: %v", err)
		}
	}()
	var replayed int64
	for _, s := range servers2 {
		replayed += s.Telemetry().Processed
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
