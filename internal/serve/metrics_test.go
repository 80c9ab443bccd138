package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/traffic"
)

// TestMetricsProm checks /metrics?format=prom serves both registries —
// the server's per-instance metrics and the process Default registry's
// stage histograms — in valid exposition shape, and pins the JSON view's
// key set.
func TestMetricsProm(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), QueryDB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	accepted := postNDJSON(t, ts.URL, synthRecords(200, 42)).Accepted
	s.Flush()

	code, hdr, body := get(t, ts.URL+"/metrics?format=prom", "")
	if code != 200 {
		t.Fatalf("prom status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE skyaccess_serve_ingest_accepted_total counter",
		fmt.Sprintf("skyaccess_serve_ingest_accepted_total %d", accepted),
		"# TYPE skyaccess_serve_epochs_total counter",
		"# TYPE skyaccess_stage_serve_epoch_seconds histogram",
		`skyaccess_stage_serve_epoch_seconds_bucket{le="+Inf"}`,
		"# TYPE skyaccess_semcache_hits_total counter",
		"# TYPE skyaccess_stage_sqlparser_parse_seconds histogram",
		"skyaccess_qlog_records_total",
		"# TYPE skyaccess_extract_memo_hits_total counter",
		"# TYPE skyaccess_extract_memo_misses_total counter",
		"# TYPE skyaccess_serve_memo_entries gauge",
		"skyaccess_serve_memo_off 0",
		"# TYPE skyaccess_serve_handler_panics_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}

	// Exposition sanity: every non-comment line is "name[{labels}] value",
	// and no metric name is emitted by both registries (duplicate families
	// are invalid in one exposition).
	seenFamily := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fam := strings.Fields(line)[2]
			seenFamily[fam]++
			if seenFamily[fam] > 1 {
				t.Errorf("metric family %q emitted twice", fam)
			}
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}

	// The JSON view: same endpoint, no format param, one key per registry
	// metric (MetricKey), and exactly this key set for a server with /query
	// on and no WAL or traffic classes.
	code, _, jsonBody := get(t, ts.URL+"/metrics", "")
	if code != 200 {
		t.Fatalf("json status %d", code)
	}
	var m map[string]any
	if err := json.Unmarshal(jsonBody, &m); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	keys := []string{
		"uptime_seconds", "ingest_accepted", "ingest_rejected", "ingest_processed",
		"queue_depth", "queue_capacity", "distinct_areas",
		"epochs", "epoch_last_seconds", "epoch_total_seconds", "template_cache_hits",
		"template_full_parses", "memo_entries", "memo_off", "distance_evals",
		"distance_cache_hits", "snapshot_bytes", "snapshot_graph_slots_installed",
		"semcache_generation", "semcache_regions", "semcache_bytes_resident", "semcache_hits",
		"semcache_misses", "semcache_bytes_served", "semcache_verify_checked",
		"semcache_verify_failed", "semcache_agg_hits", "semcache_reused",
	}
	for _, reason := range core.FallbackReasons {
		keys = append(keys, "snapshot_graph_fallback_"+reason)
	}
	for _, key := range keys {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing key %q", key)
		}
	}
	if len(m) != len(keys) {
		t.Errorf("metrics has %d keys, want the %d listed: %v", len(m), len(keys), m)
	}
	if m["ingest_accepted"].(float64) != float64(accepted) {
		t.Errorf("ingest_accepted = %v, want %d", m["ingest_accepted"], accepted)
	}

	// The JSON view and the prom view read the same counters.
	if !strings.Contains(text, fmt.Sprintf("skyaccess_serve_ingest_processed_total %d", accepted)) {
		t.Errorf("prom processed total disagrees with JSON view:\n%s",
			grepLines(text, "ingest_processed"))
	}
}

// The rendering rule, on a server with every subsystem on (WAL, traffic
// classes, /query): no two registry names share a JSON key, every JSON
// value is the registry's, and the keys perfbench's traced ledger reads are
// there.
func TestMetricsViewIsRegistry(t *testing.T) {
	db := testDB()
	dir := t.TempDir()
	s, err := NewServer(Config{Miner: minerConfig(db), QueryDB: db, Traffic: &traffic.Config{},
		SnapshotPath: filepath.Join(dir, "state.snap"), WALDir: filepath.Join(dir, "wal"), WALSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	recs := synthRecords(300, 42)
	postNDJSON(t, ts.URL, recs)
	s.Flush()
	for _, r := range recs[:20] {
		postQuery(t, ts.URL, "text/plain", r.SQL)
	}
	if err := s.WriteSnapshot(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatal(err)
	}

	view := checkMetricsView(t, ts.URL, s.Registry())
	for _, key := range []string{"distinct_areas", "distance_evals", "distance_cache_hits", "semcache_bytes_resident"} {
		if view[key] <= 0 {
			t.Errorf("/metrics %s = %v, want > 0", key, view[key])
		}
	}
}

// checkMetricsView holds GET url/metrics to its registry: one JSON key per
// metric, each the value the registry reads. The server must be quiescent,
// so that only uptime moves between the two reads; the uptime only grows.
func checkMetricsView(t *testing.T, url string, reg *obs.Registry) map[string]float64 {
	t.Helper()
	owner := map[string]string{}
	for name := range reg.Snapshot() {
		key := MetricKey(name)
		if prev, dup := owner[key]; dup {
			t.Errorf("metrics %s and %s share the JSON key %s", prev, name, key)
		}
		owner[key] = name
	}
	_, _, body := get(t, url+"/metrics", "")
	var view map[string]float64
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	snap := reg.Snapshot()
	if len(view) != len(snap) {
		t.Errorf("/metrics has %d keys, the registry %d metrics", len(view), len(snap))
	}
	for name, want := range snap {
		got, ok := view[MetricKey(name)]
		switch {
		case !ok:
			t.Errorf("/metrics lacks %s (%s)", MetricKey(name), name)
		case strings.HasSuffix(name, "_uptime_seconds"):
			if got <= 0 || got > want {
				t.Errorf("/metrics %s = %v, registry then %v", MetricKey(name), got, want)
			}
		case got != want:
			t.Errorf("/metrics %s = %v, registry %s = %v", MetricKey(name), got, name, want)
		}
	}
	return view
}

func grepLines(text, substr string) string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsConcurrentWithFlush is the regression test for the metrics
// lock fix: /metrics (both views) is hammered concurrently with ingest and
// epoch flushes. Meaningful under -race (make racecheck runs this
// package); also asserts the handler never errors mid-flush.
func TestMetricsConcurrentWithFlush(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), QueryDB: db, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := synthRecords(600, 42)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Metrics hammer: alternate JSON and prom views.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			urls := []string{ts.URL + "/metrics", ts.URL + "/metrics?format=prom"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, _, body := get(t, urls[(w+i)%2], "")
				if code != 200 {
					t.Errorf("metrics status %d: %s", code, body)
					return
				}
			}
		}(w)
	}

	// Ingest + flush loop: every flush runs an epoch (Recluster, semcache
	// Install) while the hammers read.
	for lo := 0; lo < len(recs); lo += 100 {
		postNDJSON(t, ts.URL, recs[lo:lo+100])
		s.Flush()
	}
	close(stop)
	wg.Wait()

	if got := s.epochs.Load(); got < 6 {
		t.Errorf("epochs = %d, want >= 6", got)
	}
}

// TestSlowlogEndpoint drives queries through POST /query and checks
// /debug/slowlog ranks them without exposing raw SQL. The slow log is
// process-wide and ingest extractions land in it too, so it is cleared only
// after Flush has drained ingest: the ranked entries are then the queries'.
func TestSlowlogEndpoint(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), QueryDB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postNDJSON(t, ts.URL, synthRecords(100, 42))
	s.Flush()
	obs.DefaultSlowLog.Reset()
	for _, sql := range []string{
		"SELECT TOP 5 objid FROM Photoz WHERE objid BETWEEN 1 AND 9",
		"SELECT TOP 5 objid, z FROM Photoz WHERE z BETWEEN 0.1 AND 0.2",
		"SELECT TOP 5 objid FROM PhotoObjAll WHERE ra BETWEEN 190 AND 200",
	} {
		if code, _, reply := postQuery(t, ts.URL, "text/plain", sql); code != 200 {
			t.Fatalf("query status %d: %+v", code, reply)
		}
	}

	code, _, body := get(t, ts.URL+"/debug/slowlog?k=5", "")
	if code != 200 {
		t.Fatalf("slowlog status %d: %s", code, body)
	}
	var reply struct {
		Entries []slowlogEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("slowlog json: %v", err)
	}
	if len(reply.Entries) == 0 {
		t.Fatal("slowlog empty after a /query")
	}
	if len(reply.Entries) != 3 {
		t.Errorf("slowlog holds %d entries after three queries: %+v", len(reply.Entries), reply.Entries)
	}
	foundQuery := false
	for i, e := range reply.Entries {
		if len(e.Fingerprint) != 16 {
			t.Errorf("entry %d fingerprint %q not 16 hex chars", i, e.Fingerprint)
		}
		if strings.Contains(e.Fingerprint, " ") || strings.Contains(strings.ToUpper(e.Fingerprint), "SELECT") {
			t.Errorf("entry %d leaks SQL: %+v", i, e)
		}
		if i > 0 && e.Seconds > reply.Entries[i-1].Seconds {
			t.Errorf("entries not sorted slowest-first at %d", i)
		}
		if e.Stage == "query" {
			foundQuery = true
		}
	}
	if !foundQuery {
		t.Errorf("no query-stage entry in slowlog: %+v", reply.Entries)
	}

	if code, _, body := get(t, ts.URL+"/debug/slowlog?k=bogus", ""); code != 400 {
		t.Errorf("bad k: status %d, body %s", code, body)
	}
}

// The distance counters are substrate lifetime totals: they must never go
// down, in particular not across an epoch whose access(a) registry moved
// under it (which once swapped the pair cache they read, restarting both
// from zero). Both the JSON keys and the prom counters are read.
func TestDistanceCountersSurviveRegistryMove(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), BatchSize: 64, Traffic: &traffic.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type counters struct{ evals, hits float64 }
	read := func() counters {
		t.Helper()
		_, _, body := get(t, ts.URL+"/metrics", "")
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("metrics json: %v", err)
		}
		c := counters{m["distance_evals"].(float64), m["distance_cache_hits"].(float64)}
		_, _, prom := get(t, ts.URL+"/metrics?format=prom", "")
		for name, want := range map[string]float64{
			"skyaccess_serve_distance_evals_total":      c.evals,
			"skyaccess_serve_distance_cache_hits_total": c.hits,
		} {
			line := name + " " + strconv.FormatFloat(want, 'g', -1, 64)
			if !strings.Contains(string(prom), line+"\n") {
				t.Errorf("prom view disagrees with JSON, want %q:\n%s", line, grepLines(string(prom), name))
			}
		}
		return c
	}

	postNDJSON(t, ts.URL, synthRecords(400, 7))
	s.Flush()
	first := read()
	if first.evals == 0 || first.hits == 0 {
		t.Fatalf("first epoch: evals %v, hits %v", first.evals, first.hits)
	}

	// One statement that widens access(a) on a column existing areas read.
	gen := s.miner.Stats().Generation()
	postNDJSON(t, ts.URL, []qlog.Record{{Seq: 1 << 20, User: "widen",
		SQL: "SELECT objid FROM PhotoObjAll WHERE ra BETWEEN -5000 AND 5000"}})
	s.Flush()
	if s.miner.Stats().Generation() == gen {
		t.Fatal("the widening statement did not move the access(a) registry")
	}
	moved := read()
	// Lifetime totals: the second epoch's work adds to the first's. It
	// rescans only the areas the move touched, so it evaluates less than
	// the first epoch did, and every miner reuses the rest of the graph, so
	// it reuses more entries than the first epoch, where only the class
	// miners could.
	if added := moved.evals - first.evals; added <= 0 || added >= first.evals {
		t.Errorf("evals %v → %v: the registry-move epoch should add a partial rescan", first.evals, moved.evals)
	}
	if added := moved.hits - first.hits; added <= first.hits {
		t.Errorf("hits %v → %v: the registry-move epoch should add more reuse than the first epoch had", first.hits, moved.hits)
	}
}
