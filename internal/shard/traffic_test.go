package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/memdb"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// taggedRecords spreads the synthetic workload across the three classes by
// explicit tags — known ground truth that survives the fan-out.
func taggedRecords(n int, seed int64) []qlog.Record {
	recs := synthRecords(n, seed)
	for i := range recs {
		recs[i].Class = traffic.Classes[i%3]
	}
	return recs
}

// newTrafficCluster is newHTTPCluster with traffic mining on: every shard
// classifies and mines per class, and the coordinator serves the merged
// class-aware surfaces.
func newTrafficCluster(t *testing.T, n int, db *memdb.DB) *Coordinator {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		cfg := shardConfig(db, 0)
		cfg.Traffic = &traffic.Config{}
		_, ts := startShard(t, cfg)
		urls[i] = ts.URL
	}
	return newCoordinator(t, urls, Config{Coverage: db, Traffic: true})
}

// The sharded partition gate: each class's merged report through a 4-shard
// coordinator must be byte-for-byte what a single batch mine of that class's
// records produces (under the full workload's registry evolution) — and the
// classless merged report must stay exactly the batch miner's.
func TestCoordinatorTrafficMatchesBatch(t *testing.T) {
	db := testDB()
	recs := taggedRecords(1500, 42)

	// Reference: one pipeline pass over the whole workload, each class's
	// areas fed to a private incremental miner in stream order.
	m := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)})
	pipe := &qlog.Pipeline{Extractor: &extract.Extractor{Schema: skyserver.Schema(), Stats: m.Stats()}}
	areaRecs, _ := pipe.Run(recs)
	classTotal := make(map[string]int)
	for i := range recs {
		classTotal[recs[i].Class]++
	}
	want := make(map[string][]byte)
	for _, cls := range traffic.Classes {
		inc := m.Incremental()
		extracted := 0
		for i := range areaRecs {
			if areaRecs[i].Record.Class == cls {
				inc.Add(&areaRecs[i])
				extracted++
			}
		}
		res := inc.Recluster()
		res.PipelineStats = &qlog.Stats{Total: classTotal[cls], Extracted: extracted}
		res.AttachCoverage(db)
		var buf bytes.Buffer
		if err := report.Write(&buf, res, report.JSON, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		want[cls] = buf.Bytes()
	}
	batch := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}).MineRecords(recs)
	batch.AttachCoverage(db)

	coord := newTrafficCluster(t, 4, db)
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	for lo := 0; lo < len(recs); lo += 100 {
		hi := lo + 100
		if hi > len(recs) {
			hi = len(recs)
		}
		postUntilAccepted(t, ts.URL, recs[lo:hi])
	}
	mustFlush(t, ts.URL)

	sawClusters := false
	for _, cls := range traffic.Classes {
		code, hdr, got := get(t, ts.URL+"/report?class="+cls+"&format=json")
		if code != http.StatusOK {
			t.Fatalf("class %s report status %d: %s", cls, code, got)
		}
		if etag := hdr.Get("ETag"); etag == "" {
			t.Errorf("class %s report has no ETag", cls)
		}
		if hdr.Get("X-Merge-Exact") != "true" {
			t.Errorf("class %s X-Merge-Exact = %q, want true", cls, hdr.Get("X-Merge-Exact"))
		}
		if !bytes.Equal(got, want[cls]) {
			t.Errorf("class %s merged report diverged from batch partition:\n got: %s\nwant: %s", cls, got, want[cls])
		}
		if bytes.Contains(got, []byte(`"id"`)) {
			sawClusters = true
		}
	}
	if !sawClusters {
		t.Fatal("no class produced any cluster — the sharded partition gate tested nothing")
	}

	var wantGlobal bytes.Buffer
	if err := report.Write(&wantGlobal, batch, report.JSON, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	code, _, got := get(t, ts.URL+"/report?format=json")
	if code != http.StatusOK {
		t.Fatalf("global report status %d", code)
	}
	if !bytes.Equal(got, wantGlobal.Bytes()) {
		t.Errorf("classless merged report changed with traffic mining on:\n got: %s\nwant: %s", got, wantGlobal.Bytes())
	}

	// The merged interface table is served, ranked, and guarded.
	code, _, body := get(t, ts.URL+"/interfaces?top=5")
	if code != http.StatusOK {
		t.Fatalf("interfaces status %d: %s", code, body)
	}
	var ifr struct {
		Interfaces []traffic.Interface `json:"interfaces"`
		Tracked    int                 `json:"tracked"`
	}
	if err := json.Unmarshal(body, &ifr); err != nil {
		t.Fatal(err)
	}
	if len(ifr.Interfaces) == 0 || ifr.Tracked == 0 {
		t.Fatalf("merged interfaces empty: %s", body)
	}
	for i := 1; i < len(ifr.Interfaces); i++ {
		if ifr.Interfaces[i].Hits > ifr.Interfaces[i-1].Hits {
			t.Fatalf("merged interfaces not ranked by hits: %s", body)
		}
	}
	if code, _, _ := get(t, ts.URL+"/interfaces?top=0"); code != http.StatusBadRequest {
		t.Errorf("interfaces top=0 status %d, want 400", code)
	}
	for _, path := range []string{"/report?class=robot", "/drift?class=robot"} {
		if code, _, _ := get(t, ts.URL+path); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
}

// A traffic-off coordinator answers the class-aware surfaces with 409, like
// a traffic-off single server.
func TestCoordinatorTrafficDisabled(t *testing.T) {
	db := testDB()
	coord := newHTTPCluster(t, db, 0)
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	for _, path := range []string{"/report?class=bot", "/drift", "/interfaces"} {
		if code, _, _ := get(t, ts.URL+path); code != http.StatusConflict {
			t.Errorf("GET %s on traffic-off coordinator: status %d, want 409", path, code)
		}
	}
}

// runShardDriftScript drives one fresh 4-shard cluster through the two-burst
// ingest → flush script and returns the final merged /drift body.
func runShardDriftScript(t *testing.T, db *memdb.DB, recs []qlog.Record) []byte {
	t.Helper()
	coord := newTrafficCluster(t, 4, db)
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	half := len(recs) / 2
	for lo := 0; lo < half; lo += 173 {
		hi := lo + 173
		if hi > half {
			hi = half
		}
		postUntilAccepted(t, ts.URL, recs[lo:hi])
	}
	mustFlush(t, ts.URL)
	for lo := half; lo < len(recs); lo += 97 {
		hi := lo + 97
		if hi > len(recs) {
			hi = len(recs)
		}
		postUntilAccepted(t, ts.URL, recs[lo:hi])
	}
	mustFlush(t, ts.URL)
	code, _, body := get(t, ts.URL+"/drift")
	if code != http.StatusOK {
		t.Fatalf("drift status %d: %s", code, body)
	}
	return body
}

// The sharded drift determinism gate: the same workload through the same
// flush script on two fresh 4-shard clusters emits byte-identical merged
// /drift logs — shard-local drift plus the coordinator's value-ordered merge
// is a pure function of the ingest script.
func TestCoordinatorTrafficDriftDeterministic(t *testing.T) {
	db := testDB()
	recs := taggedRecords(1400, 7)
	a := runShardDriftScript(t, db, recs)
	b := runShardDriftScript(t, db, recs)
	if !bytes.Equal(a, b) {
		t.Fatalf("merged drift logs diverged between identical runs:\n a: %s\n b: %s", a, b)
	}
	if bytes.Contains(a, []byte(`"count": 0`)) || !bytes.Contains(a, []byte(`"appeared"`)) {
		t.Fatalf("merged drift log is trivial — the determinism gate tested nothing: %s", a)
	}
}
