package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
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

// startShard runs one `skyserved -role shard` process inside the test: a
// serve.Server behind ResultHandler on its own listener. Cleanup closes
// both (Close is a no-op on a server the test already aborted).
func startShard(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ResultHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// shardConfig is one shard's server config. Like a shard process, each
// shard owns a stats registry seeded from db and a template cache.
func shardConfig(db *memdb.DB, eps float64) serve.Config {
	return serve.Config{
		Miner:      core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db), Eps: eps},
		BatchSize:  64,
		EpochAreas: 256,
	}
}

// newCoordinator is a `skyserved -role coordinator` over the shard
// listeners at urls: cfg with the router, the nodes and test-sized queue
// defaults filled in. Cleanup closes it before the shards it forwards to.
func newCoordinator(t *testing.T, urls []string, cfg Config) *Coordinator {
	t.Helper()
	cfg.Router = NewRouter(len(urls), skyserver.Schema(), 0)
	for i, u := range urls {
		cfg.Nodes = append(cfg.Nodes, NewHTTPNode(fmt.Sprintf("shard-%d", i), u, nil))
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 512
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Second
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// newHTTPCluster builds the sharded topology in one process: one shard per
// eps value (0 = the default eps), each with its own stats registry and
// template cache, behind a coordinator that attaches coverage from db.
func newHTTPCluster(t *testing.T, db *memdb.DB, eps ...float64) *Coordinator {
	t.Helper()
	urls := make([]string, len(eps))
	for i, e := range eps {
		_, ts := startShard(t, shardConfig(db, e))
		urls[i] = ts.URL
	}
	return newCoordinator(t, urls, Config{Coverage: db})
}

// ingestAndFlush replays recs through the coordinator in bursts of 100 and
// forces an epoch on every shard.
func ingestAndFlush(t *testing.T, url string, recs []qlog.Record) {
	t.Helper()
	for lo := 0; lo < len(recs); lo += 100 {
		postUntilAccepted(t, url, recs[lo:min(lo+100, len(recs))])
	}
	mustFlush(t, url)
}

// shardStatus reads the coordinator's GET /shard/status rows.
func shardStatus(t *testing.T, url string) []ShardStatus {
	t.Helper()
	code, _, body := get(t, url+"/shard/status")
	if code != http.StatusOK {
		t.Fatalf("shard/status: %d", code)
	}
	var status struct {
		Shards []ShardStatus `json:"shards"`
	}
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	return status.Shards
}

// assertMatchesBatch holds the coordinator at url to the batch miner over
// recs: in every format the merged /report equals MineRecords byte for
// byte, with the format's content type, X-Merge-Exact: true and no stale
// shards.
func assertMatchesBatch(t *testing.T, url string, db *memdb.DB, recs []qlog.Record) {
	t.Helper()
	batch := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}).MineRecords(recs)
	batch.AttachCoverage(db)
	for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
		var want bytes.Buffer
		if err := report.Write(&want, batch, f, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		code, hdr, got := get(t, url+"/report?format="+string(f))
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
}

// The shard-smoke gate: four shards, each with a private stats registry and
// template cache, reached over HTTP. On this log the merged /report equals
// the batch miner's byte for byte in every format, with every record on
// exactly one shard. Private registries are not exact in general: a
// relation seen from two relation sets on different shards can be observed
// differently than by one registry (DESIGN §14).
func TestCoordinatorMatchesBatch(t *testing.T) {
	db := testDB()
	recs := synthRecords(1000, 42)

	ts := httptest.NewServer(newHTTPCluster(t, db, 0.06, 0.06, 0.06, 0.06).Handler())
	defer ts.Close()
	if code, _, _ := get(t, ts.URL+"/report"); code != http.StatusServiceUnavailable {
		t.Fatalf("report before first merge: status %d", code)
	}
	ingestAndFlush(t, ts.URL, recs)
	assertMatchesBatch(t, ts.URL, db, recs)

	// Every record landed on exactly one shard.
	var forwarded int64
	nonEmpty := 0
	for _, st := range shardStatus(t, ts.URL) {
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

	code, _, body := get(t, ts.URL+"/metrics")
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
	if metrics["merge_exact"] != 1.0 {
		t.Errorf("metrics merge_exact = %v, want 1", metrics["merge_exact"])
	}
}

// The rendering rule on the coordinator, with traffic classes on: no two
// registry names share a JSON key, every JSON value is the registry's, and
// the Prometheus view carries the coordinator's own counters, the
// per-shard ones included.
func TestCoordinatorMetricsViewIsRegistry(t *testing.T) {
	db := testDB()
	c := newTrafficCluster(t, 2, db)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	recs := taggedRecords(400, 42)
	ingestAndFlush(t, ts.URL, recs)

	reg := c.Registry()
	owner := map[string]string{}
	for name := range reg.Snapshot() {
		key := serve.MetricKey(name)
		if prev, dup := owner[key]; dup {
			t.Errorf("metrics %s and %s share the JSON key %s", prev, name, key)
		}
		owner[key] = name
	}
	_, _, body := get(t, ts.URL+"/metrics")
	var view map[string]float64
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	snap := reg.Snapshot()
	if len(view) != len(snap) {
		t.Errorf("/metrics has %d keys, the registry %d metrics", len(view), len(snap))
	}
	for name, want := range snap {
		key := serve.MetricKey(name)
		got, ok := view[key]
		switch {
		case !ok:
			t.Errorf("/metrics lacks %s (%s)", key, name)
		case name == "skyaccess_coord_uptime_seconds":
			// Uptime is the one value that moves between the two reads.
			if got <= 0 || got > want {
				t.Errorf("/metrics %s = %v, registry then %v", key, got, want)
			}
		case got != want:
			t.Errorf("/metrics %s = %v, registry %s = %v", key, got, name, want)
		}
	}
	for key, want := range map[string]float64{
		"ingest_accepted": float64(len(recs)), "shards": 2, "merge_exact": 1,
		"shard_0_down": 0, "shard_1_down": 0, "shard_0_dropped": 0, "shard_1_dropped": 0,
	} {
		if view[key] != want {
			t.Errorf("/metrics %s = %v, want %v", key, view[key], want)
		}
	}
	if sum := view["shard_0_forwarded"] + view["shard_1_forwarded"]; sum != float64(len(recs)) {
		t.Errorf("shards forwarded %v records, want %d", sum, len(recs))
	}
	if _, ok := view["traffic_drift_events"]; !ok {
		t.Error("/metrics lacks traffic_drift_events with traffic on")
	}

	_, _, prom := get(t, ts.URL+"/metrics?format=prom")
	for _, want := range []string{
		fmt.Sprintf("skyaccess_coord_ingest_accepted_total %d\n", len(recs)),
		"# TYPE skyaccess_coord_shard_0_forwarded_total counter\n",
		"# TYPE skyaccess_coord_shard_1_down gauge\n",
		"# TYPE skyaccess_coord_merge_exact gauge\n",
		"# TYPE skyaccess_stage_serve_report_seconds histogram\n",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("coordinator prom output missing %q", want)
		}
	}
}

// The same exactness at another shard count and log: three shards take
// 2,000 records of workload seed 7, whose relation sets route differently.
func TestRemoteCoordinatorMatchesBatch(t *testing.T) {
	db := testDB()
	recs := synthRecords(2000, 7)
	ts := httptest.NewServer(newHTTPCluster(t, db, 0.06, 0.06, 0.06).Handler())
	defer ts.Close()
	ingestAndFlush(t, ts.URL, recs)
	assertMatchesBatch(t, ts.URL, db, recs)
}

// X-Merge-Exact is judged from the eps the shards report they clustered
// at: shards at one eps below the partition bound are exact, shards at an
// eps above it are not, and shards that disagree on eps are not either.
func TestMergeExactFollowsShardEps(t *testing.T) {
	db := testDB()
	recs := synthRecords(600, 7)
	for _, c := range []struct {
		eps  []float64
		want string
	}{
		{[]float64{0.06, 0.06}, "true"},
		{[]float64{0.5, 0.5}, "false"},
		{[]float64{0.06, 0.05}, "false"},
	} {
		ts := httptest.NewServer(newHTTPCluster(t, db, c.eps...).Handler())
		ingestAndFlush(t, ts.URL, recs)
		code, hdr, _ := get(t, ts.URL+"/report")
		ts.Close()
		if code != http.StatusOK {
			t.Fatalf("shard eps %v: report status %d", c.eps, code)
		}
		if got := hdr.Get("X-Merge-Exact"); got != c.want {
			t.Errorf("shard eps %v: X-Merge-Exact = %q, want %s", c.eps, got, c.want)
		}
	}
}

// A dead shard must not wedge the coordinator: ingest keeps being accepted
// (the dead shard's slice buffers), /flush returns, and /report serves the
// remaining shards' merged view with the dead shard flagged stale.
func TestShardDownDegradesGracefully(t *testing.T) {
	db := testDB()
	recs := synthRecords(600, 7)

	_, ts0 := startShard(t, shardConfig(db, 0))
	_, ts1 := startShard(t, shardConfig(db, 0))
	coord := newCoordinator(t, []string{ts0.URL, ts1.URL}, Config{
		QueueSize:      2048,
		HealthInterval: 50 * time.Millisecond,
	})
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

	status := shardStatus(t, cts.URL)
	if !status[1].Down {
		t.Error("shard/status does not show shard-1 down")
	}
	if !status[1].Stale {
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
	r1 := NewRouter(4, skyserver.Schema(), -1)
	want := make([]int, len(recs))
	for i, rec := range recs {
		want[i], _ = r1.Route(&rec)
	}
	path := filepath.Join(t.TempDir(), "router.json")
	if err := r1.SaveState(path); err != nil {
		t.Fatal(err)
	}

	r2 := NewRouter(4, skyserver.Schema(), -1)
	if err := r2.LoadState(path); err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(recs))
	for i, rec := range recs {
		got[i], _ = r2.Route(&rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("restored router routes records differently")
	}
	if r2.MaxRels() != r1.MaxRels() {
		t.Errorf("restored maxRels %d, want %d", r2.MaxRels(), r1.MaxRels())
	}

	r3 := NewRouter(8, skyserver.Schema(), -1)
	if err := r3.LoadState(path); err == nil {
		t.Fatal("loading a 4-shard assignment into an 8-shard router must fail")
	}
	if err := NewRouter(4, skyserver.Schema(), -1).LoadState(filepath.Join(t.TempDir(), "absent.json")); err != nil {
		t.Fatalf("missing state file is a cold start, not an error: %v", err)
	}

	// A restored router must not stage: its keys route immediately even when
	// it was constructed with warmup enabled.
	r4 := NewRouter(4, skyserver.Schema(), 0)
	if err := r4.LoadState(path); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		s, _ := r4.Route(&rec)
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
	r := NewRouter(4, skyserver.Schema(), 64)

	staged := 0
	keyOf := make(map[int]string)
	var bound map[string]int
	for i, rec := range recs {
		s, key := r.Route(&rec)
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

// postRaw POSTs body to the coordinator's /ingest as it is and decodes the
// reply.
func postRaw(t *testing.T, url, contentType string, body []byte) (int, int, string) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	defer resp.Body.Close()
	var reply struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("ingest reply: %v", err)
	}
	return resp.StatusCode, reply.Accepted, reply.Error
}

// rawLine is rec's NDJSON line with its SQL spliced in unescaped, as a
// client may send it: raw '<', U+2028 and invalid UTF-8 are all legal
// inside a JSON string on the wire.
func rawLine(rec qlog.Record, sql string) []byte {
	rec.SQL = "@"
	enc, _ := json.Marshal(rec)
	return append(bytes.Replace(enc, []byte(`"sql":"@"`), []byte(`"sql":"`+sql+`"`), 1), '\n')
}

// One acknowledged record must not wedge its shard. A statement of 1 MiB of
// '<' is forwarded as it came: HTML escaping would grow it six-fold, past
// the shard's NDJSON line cap, and the shard would refuse every re-send. A
// record whose forwarded line would exceed serve.MaxLineBytes anyway — too
// long as it is, or grown by re-encoding U+2028 or invalid UTF-8 — is
// refused at admission with a 400 and the accepted prefix, so no shard ever
// sees it.
func TestPoisonRecordDoesNotWedgeShard(t *testing.T) {
	db := testDB()
	recs := synthRecords(400, 7)
	ts := httptest.NewServer(newHTTPCluster(t, db, 0, 0).Handler())
	defer ts.Close()

	refused := []struct {
		name, contentType string
		body              []byte
	}{
		{"5 MiB statement in a JSON array", "application/json",
			[]byte(`[` + string(bytes.TrimSpace(rawLine(recs[0], ""))) + `,` +
				string(bytes.TrimSpace(rawLine(recs[1], strings.Repeat("x", 5<<20)))) + `]`)},
		{"U+2028 grows to six bytes", "application/x-ndjson",
			append(rawLine(recs[0], ""), rawLine(recs[1], strings.Repeat("\u2028", 1<<20))...)},
		{"invalid UTF-8 grows to U+FFFD", "application/x-ndjson",
			append(rawLine(recs[0], ""), rawLine(recs[1], strings.Repeat("\xff", 3<<19))...)},
	}
	for _, c := range refused {
		code, accepted, msg := postRaw(t, ts.URL, c.contentType, c.body)
		if code != http.StatusBadRequest || accepted != 1 || !strings.Contains(msg, "line cap") {
			t.Errorf("%s: status %d, accepted %d (%s); want 400 after accepting 1", c.name, code, accepted, msg)
		}
	}
	// The refusals' accepted prefixes were recs[0] with an empty statement.
	mined := []qlog.Record{}
	for range refused {
		blank := recs[0]
		blank.SQL = ""
		mined = append(mined, blank)
	}

	poison := qlog.Record{Seq: -1, User: "poison"}
	if code, accepted, msg := postRaw(t, ts.URL, "application/x-ndjson", rawLine(poison, strings.Repeat("<", 1<<20))); code != http.StatusAccepted || accepted != 1 {
		t.Fatalf("1 MiB of '<': status %d, accepted %d (%s); want 202", code, accepted, msg)
	}
	poison.SQL = strings.Repeat("<", 1<<20)
	mined = append(append(mined, poison), recs...)
	ingestAndFlush(t, ts.URL, recs)

	var forwarded int64
	for _, st := range shardStatus(t, ts.URL) {
		if st.Down || st.Stale || st.Dropped != 0 || st.QueueDepth != 0 {
			t.Errorf("%s wedged: %+v", st.Name, st)
		}
		forwarded += st.Forwarded
	}
	if forwarded != int64(len(mined)) {
		t.Errorf("shards took %d records, want %d", forwarded, len(mined))
	}
	batch := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}).MineRecords(mined)
	batch.AttachCoverage(db)
	var want bytes.Buffer
	if err := report.Write(&want, batch, report.CSV, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	code, hdr, got := get(t, ts.URL+"/report?format=csv")
	if code != http.StatusOK || hdr.Get("X-Stale-Shards") != "" {
		t.Fatalf("report: status %d, stale shards %q", code, hdr.Get("X-Stale-Shards"))
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("merged report differs from batch miner.\nmerged:\n%s\nbatch:\n%s", got, want.Bytes())
	}
}

// A record the shard refuses (400) is dropped and counted once: the
// coordinator does not re-send it forever, the shard stays up, and the rest
// of the slice is delivered and mined.
func TestShardRefusalDropsRecord(t *testing.T) {
	db := testDB()
	recs := synthRecords(300, 7)
	s, err := serve.NewServer(shardConfig(db, 0))
	if err != nil {
		t.Fatal(err)
	}
	// The shard refuses any forwarded batch that starts with the marked
	// record, as it refuses a line it cannot decode.
	marked := qlog.Record{Seq: -1, User: "marked", SQL: "SELECT 1"}
	prefix, _ := json.Marshal(marked)
	var refusals atomic.Int64
	shardHandler := ResultHandler(s)
	sts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			body, _ := io.ReadAll(r.Body)
			if bytes.HasPrefix(body, prefix) {
				refusals.Add(1)
				w.WriteHeader(http.StatusBadRequest)
				_, _ = w.Write([]byte(`{"accepted":0,"error":"line 1: refused"}`))
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		shardHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		sts.Close()
		s.Close()
	})
	ts := httptest.NewServer(newCoordinator(t, []string{sts.URL}, Config{Coverage: db}).Handler())
	defer ts.Close()

	postUntilAccepted(t, ts.URL, []qlog.Record{marked})
	deadline := time.Now().Add(10 * time.Second)
	for shardStatus(t, ts.URL)[0].Dropped == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the refused record was never dropped (%d refusals)", refusals.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ingestAndFlush(t, ts.URL, recs)

	st := shardStatus(t, ts.URL)[0]
	if st.Down || st.Dropped != 1 || st.Forwarded != int64(len(recs)) || refusals.Load() != 1 {
		t.Fatalf("after one refusal: %+v, %d refusals; want 1 dropped, %d forwarded, 1 refusal",
			st, refusals.Load(), len(recs))
	}
	batch := core.NewMiner(core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}).MineRecords(recs)
	batch.AttachCoverage(db)
	var want bytes.Buffer
	if err := report.Write(&want, batch, report.CSV, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	if code, _, got := get(t, ts.URL+"/report?format=csv"); code != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("report status %d; merged report differs from batch miner.\nmerged:\n%s\nbatch:\n%s", code, got, want.Bytes())
	}
}
