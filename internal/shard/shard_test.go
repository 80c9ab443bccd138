package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/memdb"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/skyserver"
)

func testDB() *memdb.DB {
	return skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 400, Seed: 1})
}

func seededStats(db *memdb.DB) *schema.Stats {
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)
	return stats
}

func synthRecords(n int, seed int64) []qlog.Record {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: n, Seed: seed})
	recs := make([]qlog.Record, len(entries))
	for i, e := range entries {
		recs[i] = qlog.Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}

func ndjsonBody(recs []qlog.Record) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range recs {
		_ = enc.Encode(&recs[i])
	}
	return &buf
}

// postUntilAccepted replays one burst, re-sending the tail a 429 did not
// admit — the loggen -replay client behaviour.
func postUntilAccepted(t *testing.T, url string, recs []qlog.Record) {
	t.Helper()
	for len(recs) > 0 {
		resp, err := http.Post(url+"/ingest", "application/x-ndjson", ndjsonBody(recs))
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		var reply struct {
			Accepted int    `json:"accepted"`
			Error    string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("ingest reply: %v", err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return
		case http.StatusTooManyRequests:
			recs = recs[reply.Accepted:]
			time.Sleep(2 * time.Millisecond)
		default:
			t.Fatalf("ingest status %d (%s)", resp.StatusCode, reply.Error)
		}
	}
}

func mustFlush(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// newInProcessCluster builds the in-process topology the shard-smoke gate
// runs: n shard servers sharing one stats registry and one template cache
// behind a relation-set router.
func newInProcessCluster(t *testing.T, n int, db *memdb.DB, routerStatePath string) *Coordinator {
	t.Helper()
	stats := seededStats(db)
	tcache := &extract.TemplateCache{}
	router := NewRouter(n, skyserver.Schema(), tcache, 0)
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		s, err := serve.NewServer(serve.Config{
			Miner:      core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: stats},
			Templates:  tcache,
			BatchSize:  64,
			EpochAreas: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewLocalNode("shard-"+string(rune('0'+i)), s)
	}
	coord, err := NewCoordinator(Config{
		Router:          router,
		Nodes:           nodes,
		QueueSize:       512,
		BatchSize:       64,
		Eps:             0.06,
		Coverage:        db,
		HealthInterval:  time.Second,
		RouterStatePath: routerStatePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// The shard-smoke gate: a 4-shard in-process cluster ingesting over HTTP
// must serve a merged /report byte-for-byte identical, in every format, to
// the batch miner over the same records — relation-set sharding is exact.
func TestCoordinatorMatchesBatch(t *testing.T) {
	db := testDB()
	recs := synthRecords(1000, 42)

	batch := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}).MineRecords(recs)
	batch.AttachCoverage(db)

	coord := newInProcessCluster(t, 4, db, "")
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()

	if code, _, _ := get(t, ts.URL+"/report"); code != http.StatusServiceUnavailable {
		t.Fatalf("report before first merge: status %d", code)
	}

	for lo := 0; lo < len(recs); lo += 100 {
		hi := lo + 100
		if hi > len(recs) {
			hi = len(recs)
		}
		postUntilAccepted(t, ts.URL, recs[lo:hi])
	}
	mustFlush(t, ts.URL)

	for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
		var want bytes.Buffer
		if err := report.Write(&want, batch, f, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		code, hdr, got := get(t, ts.URL+"/report?format="+string(f))
		if code != http.StatusOK {
			t.Fatalf("%s report status %d", f, code)
		}
		if ct := hdr.Get("Content-Type"); ct != formatContentType(f) {
			t.Errorf("%s content-type %q, want %q", f, ct, formatContentType(f))
		}
		if hdr.Get("X-Merge-Exact") != "true" {
			t.Errorf("%s X-Merge-Exact = %q, want true", f, hdr.Get("X-Merge-Exact"))
		}
		if hdr.Get("X-Stale-Shards") != "" {
			t.Errorf("%s unexpected stale shards %q", f, hdr.Get("X-Stale-Shards"))
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s merged report differs from batch miner.\nmerged:\n%s\nbatch:\n%s", f, got, want.Bytes())
		}
	}

	// Every record landed on exactly one shard.
	code, _, body := get(t, ts.URL+"/shard/status")
	if code != http.StatusOK {
		t.Fatalf("shard/status: %d", code)
	}
	var status struct {
		Shards []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	var forwarded int64
	nonEmpty := 0
	for _, st := range status.Shards {
		forwarded += st.Forwarded
		if st.Forwarded > 0 {
			nonEmpty++
		}
	}
	if forwarded != int64(len(recs)) {
		t.Errorf("forwarded %d records across shards, want %d", forwarded, len(recs))
	}
	if nonEmpty < 2 {
		t.Errorf("only %d shards received records; routing did not spread the workload", nonEmpty)
	}

	code, _, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics["ingest_accepted"].(float64) != float64(len(recs)) {
		t.Errorf("metrics ingest_accepted = %v, want %d", metrics["ingest_accepted"], len(recs))
	}
	if metrics["merge_exact"] != true {
		t.Errorf("metrics merge_exact = %v, want true", metrics["merge_exact"])
	}
}

// A dead shard must not wedge the coordinator: ingest keeps being accepted
// (the dead shard's slice buffers), /flush returns, and /report serves the
// remaining shards' merged view with the dead shard flagged stale.
func TestShardDownDegradesGracefully(t *testing.T) {
	db := testDB()
	recs := synthRecords(600, 7)

	mkShard := func() (*serve.Server, *httptest.Server) {
		s, err := serve.NewServer(serve.Config{
			Miner:      core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)},
			BatchSize:  64,
			EpochAreas: 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(ResultHandler(s))
	}
	s0, ts0 := mkShard()
	s1, ts1 := mkShard()
	defer s0.Close()
	defer s1.Close()
	defer ts0.Close()

	router := NewRouter(2, skyserver.Schema(), nil, 0)
	coord, err := NewCoordinator(Config{
		Router: router,
		Nodes: []Node{
			NewHTTPNode("shard-0", ts0.URL, nil),
			NewHTTPNode("shard-1", ts1.URL, nil),
		},
		QueueSize:      2048,
		BatchSize:      64,
		Eps:            0.06,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	postUntilAccepted(t, cts.URL, recs[:300])
	mustFlush(t, cts.URL)
	if code, hdr, _ := get(t, cts.URL+"/report"); code != http.StatusOK || hdr.Get("X-Stale-Shards") != "" {
		t.Fatalf("healthy report: status %d, stale %q", code, hdr.Get("X-Stale-Shards"))
	}

	// Kill shard 1 and give the health loop a probe cycle.
	ts1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !coord.down[1].Load() {
		if time.Now().After(deadline) {
			t.Fatal("health loop never marked the dead shard down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Ingest keeps accepting: the dead shard's records buffer, the live
	// shard's flow.
	postUntilAccepted(t, cts.URL, recs[300:])

	mustFlush(t, cts.URL)
	code, hdr, body := get(t, cts.URL+"/report")
	if code != http.StatusOK {
		t.Fatalf("degraded report: status %d", code)
	}
	if hdr.Get("X-Stale-Shards") != "shard-1" {
		t.Errorf("X-Stale-Shards = %q, want shard-1", hdr.Get("X-Stale-Shards"))
	}
	if len(body) == 0 {
		t.Error("degraded report is empty")
	}

	code, _, body = get(t, cts.URL+"/shard/status")
	if code != http.StatusOK {
		t.Fatalf("shard/status: %d", code)
	}
	var status struct {
		Shards []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if !status.Shards[1].Down {
		t.Error("shard/status does not show shard-1 down")
	}
	if !status.Shards[1].Stale {
		t.Error("shard/status does not show shard-1 stale")
	}

	// Closing with a shard down must not hang (its backlog is abandoned
	// after bounded retries).
	done := make(chan struct{})
	go func() { _ = coord.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator Close hung with a shard down")
	}
}

// The wire form must round-trip every field the reports read, including
// unbounded interval endpoints (±Inf breaks naive float JSON).
func TestWireResultRoundTrip(t *testing.T) {
	db := testDB()
	recs := synthRecords(800, 3)
	res := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}).MineRecords(recs)
	res.AttachCoverage(db)
	if len(res.Clusters) == 0 {
		t.Fatal("batch mine produced no clusters; cannot exercise the wire format")
	}

	// Force an unbounded and an open endpoint into one box to pin the ±Inf
	// encoding.
	res.Clusters[0].Box.Set("synthetic_dim", interval.Interval{Lo: math.Inf(-1), Hi: 3.5, HiOpen: true})

	data, err := json.Marshal(EncodeResult(res, 7))
	if err != nil {
		t.Fatalf("wire encode: %v", err)
	}
	var wire WireResult
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatalf("wire decode: %v", err)
	}
	if wire.Generation != 7 {
		t.Errorf("generation %d, want 7", wire.Generation)
	}
	decoded := DecodeResult(&wire)

	var want, got bytes.Buffer
	if err := report.Write(&want, res, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	if err := report.Write(&got, decoded, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("decoded report differs:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
	iv := decoded.Clusters[0].Box.Get("synthetic_dim")
	if !math.IsInf(iv.Lo, -1) || iv.Hi != 3.5 || !iv.HiOpen {
		t.Errorf("synthetic interval did not round-trip: %+v", iv)
	}
}

// The sticky assignment must survive a restart byte-for-byte: re-routing a
// restored shard's keys elsewhere would double-count its areas. (Warmup is
// disabled here — staging is covered by TestRouterWarmupBinding; persistence
// is about the bound assignment.)
func TestRouterStatePersistence(t *testing.T) {
	recs := synthRecords(400, 11)
	r1 := NewRouter(4, skyserver.Schema(), nil, -1)
	want := make([]int, len(recs))
	for i, rec := range recs {
		want[i], _ = r1.Route(rec)
	}
	path := filepath.Join(t.TempDir(), "router.json")
	if err := r1.SaveState(path); err != nil {
		t.Fatal(err)
	}

	r2 := NewRouter(4, skyserver.Schema(), nil, -1)
	if err := r2.LoadState(path); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(recs))
	for i, rec := range recs {
		got[i], _ = r2.Route(rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored router routes records differently")
	}
	if r2.MaxRels() != r1.MaxRels() {
		t.Errorf("restored maxRels %d, want %d", r2.MaxRels(), r1.MaxRels())
	}

	r3 := NewRouter(8, skyserver.Schema(), nil, -1)
	if err := r3.LoadState(path); err == nil {
		t.Fatal("loading a 4-shard assignment into an 8-shard router must fail")
	}
	if err := NewRouter(4, skyserver.Schema(), nil, -1).LoadState(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatalf("missing state file is a cold start, not an error: %v", err)
	}

	// A restored router must not stage: its keys route immediately even when
	// it was constructed with warmup enabled.
	r4 := NewRouter(4, skyserver.Schema(), nil, 0)
	if err := r4.LoadState(path); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		s, _ := r4.Route(rec)
		if s == ShardStaged {
			t.Fatalf("restored router staged record %d", i)
		}
	}
}

// Warmup staging: keys stage until the horizon, BindAll packs them in
// descending observed-count order onto least-loaded shards, and post-bind
// routing is sticky to those assignments.
func TestRouterWarmupBinding(t *testing.T) {
	recs := synthRecords(2000, 42)
	r := NewRouter(4, skyserver.Schema(), nil, 64)

	staged := 0
	keyOf := make(map[int]string)
	var bound map[string]int
	for i, rec := range recs {
		s, key := r.Route(rec)
		if s == ShardStaged {
			staged++
			keyOf[i] = key
			if key == "" {
				t.Fatalf("record %d staged without a key", i)
			}
			if bound != nil {
				t.Fatalf("record %d staged after BindAll", i)
			}
			if r.NeedsBind() {
				bound = r.BindAll()
			}
			continue
		}
		if bound != nil && key != "" {
			if wantShard, ok := bound[key]; ok {
				if s != wantShard {
					t.Fatalf("record %d key %q routed to %d, bound to %d", i, key, s, wantShard)
				}
			}
		}
	}
	if staged != 64 {
		t.Errorf("staged %d records, want exactly the warmup horizon 64", staged)
	}
	if bound == nil {
		t.Fatal("warmup horizon never crossed on 2000 records")
	}
	for i, key := range keyOf {
		if _, ok := bound[key]; !ok {
			t.Errorf("staged record %d key %q never bound", i, key)
		}
	}
	if r.NeedsBind() {
		t.Error("NeedsBind still true after BindAll")
	}

	// Loads account for every routed area record (staged ones charged at
	// bind), and the packing uses more than one shard.
	loads := r.Loads()
	nonEmpty := 0
	var total int64
	for _, l := range loads {
		total += l
		if l > 0 {
			nonEmpty++
		}
	}
	if total == 0 || nonEmpty < 2 {
		t.Errorf("loads %v: packing did not spread staged keys", loads)
	}
}
