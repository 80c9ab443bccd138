package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
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

func minerConfig(db *memdb.DB) core.Config {
	return core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)}
}

func ndjsonBody(recs []qlog.Record) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		_ = enc.Encode(r)
	}
	return &buf
}

func postNDJSON(t *testing.T, url string, recs []qlog.Record) ingestReply {
	t.Helper()
	// A 429 is back-pressure, not failure: like loggen, re-send the tail
	// the bounded queue did not accept after a short backoff. The returned
	// reply totals what every attempt accepted.
	var total ingestReply
	backoff := 2 * time.Millisecond
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(url+"/ingest", "application/x-ndjson", ndjsonBody(recs))
		if err != nil {
			t.Fatalf("ingest: %v", err)
		}
		var reply ingestReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("ingest reply: %v", err)
		}
		total.Accepted += reply.Accepted
		switch {
		case resp.StatusCode == http.StatusAccepted:
			return total
		case resp.StatusCode == http.StatusTooManyRequests && time.Now().Before(deadline):
			recs = recs[reply.Accepted:]
			time.Sleep(backoff)
			if backoff < 100*time.Millisecond {
				backoff *= 2
			}
		default:
			t.Fatalf("ingest status %d (%s)", resp.StatusCode, reply.Error)
		}
	}
}

func get(t *testing.T, url string, accept string) (int, http.Header, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// The serve-smoke gate: replaying a log into the server and flushing must
// produce a /report byte-for-byte identical, in every format, to the batch
// miner's report over the same records.
func TestServeSmoke(t *testing.T) {
	db := testDB()
	recs := synthRecords(1000, 42)

	batch := core.NewMiner(minerConfig(db)).MineRecords(recs)
	batch.AttachCoverage(db)

	s, err := NewServer(Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, body := get(t, ts.URL+"/report", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("report before first epoch: status %d, body %q", code, body)
	}

	// Replay in bursts, as loggen -replay would.
	for lo := 0; lo < len(recs); lo += 100 {
		hi := lo + 100
		if hi > len(recs) {
			hi = len(recs)
		}
		if reply := postNDJSON(t, ts.URL, recs[lo:hi]); reply.Accepted != hi-lo {
			t.Fatalf("burst accepted %d of %d", reply.Accepted, hi-lo)
		}
	}
	if resp, err := http.Post(ts.URL+"/flush", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flush status %d", resp.StatusCode)
		}
	}

	for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
		var want bytes.Buffer
		if err := report.Write(&want, batch, f, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		code, hdr, got := get(t, ts.URL+"/report?format="+string(f), "")
		if code != http.StatusOK {
			t.Fatalf("%s report status %d", f, code)
		}
		if ct := hdr.Get("Content-Type"); ct != contentTypes[f] {
			t.Errorf("%s report content-type %q, want %q", f, ct, contentTypes[f])
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s report differs from batch miner.\nserver:\n%s\nbatch:\n%s", f, got, want.Bytes())
		}
	}

	// Accept-header negotiation.
	if _, hdr, _ := get(t, ts.URL+"/report", "application/json"); hdr.Get("Content-Type") != "application/json" {
		t.Errorf("Accept: application/json negotiated %q", hdr.Get("Content-Type"))
	}

	if code, _, body := get(t, ts.URL+"/healthz", ""); code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz: %d %q", code, body)
	}
	code, _, body := get(t, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var metrics map[string]any
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatalf("metrics json: %v", err)
	}
	if metrics["ingest_accepted"].(float64) != 1000 {
		t.Errorf("metrics accepted = %v, want 1000", metrics["ingest_accepted"])
	}
	if metrics["epochs"].(float64) < 1 {
		t.Errorf("metrics epochs = %v, want >= 1", metrics["epochs"])
	}
}

// JSON-array and single-object bodies are accepted alongside NDJSON.
func TestIngestJSONBodies(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := synthRecords(10, 7)[:10]
	arr, _ := json.Marshal(recs)
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(arr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("array ingest status %d", resp.StatusCode)
	}

	one, _ := json.Marshal(recs[0])
	resp, err = http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("object ingest status %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/ingest", "application/json", strings.NewReader("42"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus ingest status %d, want 400", resp.StatusCode)
	}

	s.Flush()
	if got := s.statsSnapshot().Total; got != 11 {
		t.Fatalf("pipeline saw %d records, want 11", got)
	}
}

// A queue much smaller than an ingest burst must answer 429 without losing
// any record it accepted: after a flush, every accepted record has been
// extracted.
func TestIngestBackpressure(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), QueueSize: 16, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := synthRecords(4000, 9)
	total, saw429 := 0, false
	for lo := 0; lo < len(recs) && !saw429; lo += 1000 {
		resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(recs[lo:lo+1000]))
		if err != nil {
			t.Fatal(err)
		}
		var reply ingestReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		total += reply.Accepted
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if reply.Accepted >= 1000 {
				t.Errorf("429 reply claims all %d records accepted", reply.Accepted)
			}
		default:
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	if !saw429 {
		t.Skip("queue never filled on this machine; backpressure path not exercised")
	}
	s.Flush()
	if got := s.statsSnapshot().Total; got != total {
		t.Fatalf("accepted %d records but pipeline saw %d", total, got)
	}
	if got := s.rejected.Load(); got == 0 {
		t.Error("rejected counter is zero despite a 429")
	}
}

// Graceful shutdown under concurrent load: every record a client was told
// was accepted is extracted and lands in the snapshot, and a server
// restored from that snapshot serves the identical report.
func TestShutdownUnderLoadZeroLoss(t *testing.T) {
	db := testDB()
	snapPath := filepath.Join(t.TempDir(), "snapshot.json")
	s, err := NewServer(Config{Miner: minerConfig(db), Coverage: db, SnapshotPath: snapPath, QueueSize: 64, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := synthRecords(3000, 5)
	var mu sync.Mutex
	accepted := 0
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lo := w * 750; lo < (w+1)*750; lo += 50 {
				resp, err := http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(recs[lo:lo+50]))
				if err != nil {
					return
				}
				var reply ingestReply
				_ = json.NewDecoder(resp.Body).Decode(&reply)
				resp.Body.Close()
				mu.Lock()
				accepted += reply.Accepted
				mu.Unlock()
				if resp.StatusCode == http.StatusServiceUnavailable {
					return
				}
			}
		}(w)
	}
	// Let the load get going, then close concurrently with it: late POSTs
	// get 503, but whatever was accepted must survive.
	for deadline := time.Now().Add(10 * time.Second); s.accepted.Load() < 500 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	if accepted == 0 {
		t.Fatal("no records accepted before shutdown")
	}
	if got := s.statsSnapshot().Total; got != accepted {
		t.Fatalf("accepted %d records but extracted %d — records lost in shutdown", accepted, got)
	}

	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.Accepted != int64(accepted) || snap.Pipeline.Total != accepted {
		t.Fatalf("snapshot accounts for %d accepted / %d extracted, want %d", snap.Accepted, snap.Pipeline.Total, accepted)
	}

	var want bytes.Buffer
	latestRes, _ := s.latest()
	if err := report.Write(&want, latestRes, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Config{Miner: minerConfig(db), Coverage: db, SnapshotPath: snapPath})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer s2.Close()
	var got bytes.Buffer
	latestRes2, _ := s2.latest()
	if err := report.Write(&got, latestRes2, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("restored report differs:\nbefore:\n%s\nafter:\n%s", want.String(), got.String())
	}
	if s2.inc.Distinct() != s.inc.Distinct() {
		t.Fatalf("restored %d distinct areas, want %d", s2.inc.Distinct(), s.inc.Distinct())
	}
}

// The size trigger runs epochs in the background without explicit flushes.
func TestEpochSizeTrigger(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), EpochAreas: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recs := synthRecords(600, 11)
	for i := range recs {
		if err := s.enqueue(recs[i]); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	s.Flush() // drain, so trigger epochs had every chance to fire
	if s.epochs.Load() < 2 {
		t.Errorf("expected background epochs beyond the flush, got %d", s.epochs.Load())
	}
	if res, _ := s.latest(); res == nil {
		t.Error("no result published")
	}
}

// POST /snapshot persists on demand; deadline-bound Shutdown still writes a
// snapshot covering the extracted prefix.
func TestSnapshotEndpointAndDeadline(t *testing.T) {
	db := testDB()
	snapPath := filepath.Join(t.TempDir(), "snap.json")
	s, err := NewServer(Config{Miner: minerConfig(db), SnapshotPath: snapPath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postNDJSON(t, ts.URL, synthRecords(50, 3))
	s.Flush()
	resp, err := http.Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired deadline: shutdown must still complete and snapshot
	if err := s.Shutdown(ctx); err != context.Canceled {
		t.Fatalf("shutdown err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot after deadline shutdown: %v", err)
	}

	// Ingest after shutdown answers 503.
	resp, err = http.Post(ts.URL+"/ingest", "application/x-ndjson", ndjsonBody(synthRecords(1, 4)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown ingest status %d, want 503", resp.StatusCode)
	}
}
