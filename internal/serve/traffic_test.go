package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
	"repro/internal/traffic"
)

// taggedRecords spreads the synthetic workload across the three classes by
// explicit tags, so the class of every record is known ground truth.
func taggedRecords(n int, seed int64) []qlog.Record {
	recs := synthRecords(n, seed)
	for i := range recs {
		recs[i].Class = traffic.Classes[i%3]
	}
	return recs
}

func flushServer(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Post(url+"/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
}

// mixedRecords is an untagged bot/human/admin workload (70/25/5%) whose
// ground truth is the user-name prefix (skyserver.ClassOf).
func mixedRecords(n int, seed int64) []qlog.Record {
	entries := skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: n, Seed: seed},
		skyserver.ClassMix{Bot: 0.70, Human: 0.25, Admin: 0.05})
	recs := make([]qlog.Record, len(entries))
	for i, e := range entries {
		recs[i] = qlog.Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}

// The partition gate: each class's served report must be byte-for-byte what
// a batch mine of that class's records produces — with the registry and
// template evolution of the FULL workload, which is what the server sees
// (the per-class miners partition one shared extraction stream). Records
// arrive either tagged or untagged; untagged ones take the class a
// reference classifier replayed over the same stream in order assigns, and
// the server's final per-user verdicts must then clear the 0.95
// precision/recall bar against the user-name ground truth.
func TestTrafficPartitionIdentity(t *testing.T) {
	db := testDB()
	for _, tc := range []struct {
		name       string
		recs       []qlog.Record
		classified bool
	}{
		{"tagged", taggedRecords(2000, 42), false},
		{"classified", mixedRecords(2000, 42), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			recs := tc.recs
			ref := recs
			if tc.classified {
				ref = make([]qlog.Record, len(recs))
				clf := traffic.NewClassifier(traffic.Config{})
				for i, r := range recs {
					fp, _, err := sqlparser.Fingerprint(r.SQL)
					if err != nil {
						fp = 0
					}
					ref[i] = r
					ref[i].Class = clf.Observe(r.User, r.Time, fp, r.SQL)
				}
			}

			// Reference: one pipeline pass over the whole workload, each
			// class's areas fed to a private incremental miner in stream
			// order.
			m := core.NewMiner(minerConfig(db))
			pipe := &qlog.Pipeline{Extractor: &extract.Extractor{Schema: skyserver.Schema(), Stats: m.Stats()}}
			areaRecs, _ := pipe.Run(ref)
			classTotal := make(map[string]int)
			for i := range ref {
				classTotal[ref[i].Class]++
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

			s, err := NewServer(Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64, Traffic: &traffic.Config{}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for lo := 0; lo < len(recs); lo += 250 {
				postNDJSON(t, ts.URL, recs[lo:min(lo+250, len(recs))])
			}
			flushServer(t, ts.URL)

			sawClusters := false
			for _, cls := range traffic.Classes {
				code, hdr, got := get(t, ts.URL+"/report?class="+cls+"&format=json", "")
				if code != http.StatusOK {
					t.Fatalf("class %s report status %d: %s", cls, code, got)
				}
				if etag := hdr.Get("ETag"); etag == "" {
					t.Errorf("class %s report has no ETag", cls)
				}
				if !bytes.Equal(got, want[cls]) {
					t.Errorf("class %s report diverged from batch partition:\n got: %s\nwant: %s", cls, got, want[cls])
				}
				if bytes.Contains(got, []byte(`"id"`)) {
					sawClusters = true
				}
			}
			if !sawClusters {
				t.Fatal("no class produced any cluster — the partition gate tested nothing")
			}

			// The classless report must be exactly what a traffic-off server
			// (and hence the batch miner) serves: per-class mining is a pure
			// addition.
			batch := core.NewMiner(minerConfig(db)).MineRecords(recs)
			batch.AttachCoverage(db)
			var wantGlobal bytes.Buffer
			if err := report.Write(&wantGlobal, batch, report.JSON, report.Options{Coverage: true}); err != nil {
				t.Fatal(err)
			}
			code, _, got := get(t, ts.URL+"/report?format=json", "")
			if code != http.StatusOK {
				t.Fatalf("global report status %d", code)
			}
			if !bytes.Equal(got, wantGlobal.Bytes()) {
				t.Errorf("classless report changed with traffic mining on:\n got: %s\nwant: %s", got, wantGlobal.Bytes())
			}

			if !tc.classified {
				return
			}
			tp, fp, fn := map[string]int{}, map[string]int{}, map[string]int{}
			for user, got := range s.TrafficUserClasses() {
				if truth := skyserver.ClassOf(user); got == truth {
					tp[truth]++
				} else {
					fp[got]++
					fn[truth]++
				}
			}
			for _, cls := range traffic.Classes {
				if tp[cls] == 0 {
					t.Fatalf("class %s: no user classified correctly (fp=%d fn=%d)", cls, fp[cls], fn[cls])
				}
				prec := float64(tp[cls]) / float64(tp[cls]+fp[cls])
				rec := float64(tp[cls]) / float64(tp[cls]+fn[cls])
				if prec < 0.95 || rec < 0.95 {
					t.Errorf("class %s: precision %.3f recall %.3f, want >= 0.95", cls, prec, rec)
				}
			}
		})
	}
}

// A class query against a traffic-off server is a 409; an unknown class a
// 400; /drift and /interfaces mirror the 409.
func TestTrafficDisabledAndBadClass(t *testing.T) {
	db := testDB()
	off, err := NewServer(Config{Miner: minerConfig(db)})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	tsOff := httptest.NewServer(off.Handler())
	defer tsOff.Close()
	for _, path := range []string{"/report?class=bot", "/drift", "/interfaces"} {
		if code, _, _ := get(t, tsOff.URL+path, ""); code != http.StatusConflict {
			t.Errorf("GET %s on traffic-off server: status %d, want 409", path, code)
		}
	}

	on, err := NewServer(Config{Miner: minerConfig(db), Traffic: &traffic.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	tsOn := httptest.NewServer(on.Handler())
	defer tsOn.Close()
	for _, path := range []string{"/report?class=robot", "/drift?class=robot"} {
		if code, _, _ := get(t, tsOn.URL+path, ""); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", path, code)
		}
	}
}

// driftBody fetches /drift and fails the test on a non-200.
func driftBody(t *testing.T, url string) []byte {
	t.Helper()
	code, _, body := get(t, url+"/drift", "")
	if code != http.StatusOK {
		t.Fatalf("drift status %d: %s", code, body)
	}
	return body
}

// runDriftScript ingests the workload in two halves with a flush after
// each, returning the final /drift body — the determinism gate replays it
// twice and compares bytes.
func runDriftScript(t *testing.T, cfg Config, recs []qlog.Record) []byte {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	half := len(recs) / 2
	for lo := 0; lo < half; lo += 173 {
		hi := lo + 173
		if hi > half {
			hi = half
		}
		postNDJSON(t, ts.URL, recs[lo:hi])
	}
	flushServer(t, ts.URL)
	for lo := half; lo < len(recs); lo += 97 {
		hi := lo + 97
		if hi > len(recs) {
			hi = len(recs)
		}
		postNDJSON(t, ts.URL, recs[lo:hi])
	}
	flushServer(t, ts.URL)
	return driftBody(t, ts.URL)
}

// The drift determinism gate: the same workload, ingested twice through the
// same flush script (but different burst sizes are exercised by the two
// halves), emits byte-identical /drift logs — with tagged records and with
// classes the server's classifier assigns.
func TestTrafficDriftDeterministic(t *testing.T) {
	db := testDB()
	mk := func() Config {
		return Config{Miner: minerConfig(db), BatchSize: 64, Traffic: &traffic.Config{}}
	}
	for _, recs := range [][]qlog.Record{taggedRecords(1600, 7), mixedRecords(1600, 7)} {
		a := runDriftScript(t, mk(), recs)
		b := runDriftScript(t, mk(), recs)
		if !bytes.Equal(a, b) {
			t.Fatalf("drift logs diverged between identical runs:\n a: %s\n b: %s", a, b)
		}
		if bytes.Contains(a, []byte(`"count": 0`)) || !bytes.Contains(a, []byte(`"appeared"`)) {
			t.Fatalf("drift log is trivial — the determinism gate tested nothing: %s", a)
		}
	}
}

// /interfaces renders the hottest templates with slot bindings and observed
// ranges, and explicit class tags survive ingest (the classifier observes
// but does not override them).
func TestTrafficInterfacesAndCounts(t *testing.T) {
	db := testDB()
	recs := taggedRecords(900, 11)
	s, err := NewServer(Config{Miner: minerConfig(db), Traffic: &traffic.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	postNDJSON(t, ts.URL, recs)
	flushServer(t, ts.URL)

	code, _, body := get(t, ts.URL+"/interfaces?top=5", "")
	if code != http.StatusOK {
		t.Fatalf("interfaces status %d: %s", code, body)
	}
	for _, needle := range []string{`"fingerprint"`, `"skeleton"`, `"hits"`} {
		if !bytes.Contains(body, []byte(needle)) {
			t.Errorf("interfaces body lacks %s: %s", needle, body)
		}
	}
	if code, _, _ := get(t, ts.URL+"/interfaces?top=0", ""); code != http.StatusBadRequest {
		t.Errorf("interfaces top=0 status %d, want 400", code)
	}

	// Per-class record counters partition the processed count exactly.
	code, _, metricsBody := get(t, ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var flat map[string]any
	if err := json.Unmarshal(metricsBody, &flat); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, cls := range traffic.Classes {
		v, ok := flat["traffic_"+cls+"_records"].(float64)
		if !ok {
			t.Fatalf("metrics lack traffic_%s_records: %s", cls, metricsBody)
		}
		sum += v
	}
	if int(sum) != len(recs) {
		t.Errorf("class record counts sum to %d, want %d", int(sum), len(recs))
	}
}

// Snapshot round-trip: class reports, drift state and the interface miner
// survive a Close + reopen, and the restarted server's class reports are
// byte-identical to the pre-restart ones.
func TestTrafficSnapshotRestart(t *testing.T) {
	db := testDB()
	recs := taggedRecords(1200, 23)
	dir := t.TempDir()
	cfg := func() Config {
		return Config{
			Miner:        minerConfig(db),
			BatchSize:    64,
			SnapshotPath: filepath.Join(dir, "snap.json"),
			Traffic:      &traffic.Config{},
		}
	}

	s, err := NewServer(cfg())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	postNDJSON(t, ts.URL, recs)
	flushServer(t, ts.URL)
	before := make(map[string][]byte)
	for _, cls := range traffic.Classes {
		code, _, body := get(t, ts.URL+"/report?class="+cls+"&format=json", "")
		if code != http.StatusOK {
			t.Fatalf("pre-restart class %s report status %d", cls, code)
		}
		before[cls] = body
	}
	driftBefore := driftBody(t, ts.URL)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.inc.Distinct(); n < 1024 {
		t.Fatalf("%d distinct areas: the restore below must re-extract more representatives than the memo's probation window", n)
	}

	memoHits := func() float64 { return obs.Default().Snapshot()["skyaccess_extract_memo_hits_total"] }
	hits0 := memoHits()
	s2, err := NewServer(cfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	// The global and class restores share the server's memo: a class
	// representative whose text the global restore extracted is a hit, and
	// the distinct representatives do not switch the memo off.
	if hits := memoHits() - hits0; s2.pipe.Cache.MemoOff() || hits == 0 {
		t.Errorf("after restore: memo off=%v hits=%v, want on with hits", s2.pipe.Cache.MemoOff(), hits)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, cls := range traffic.Classes {
		code, _, body := get(t, ts2.URL+"/report?class="+cls+"&format=json", "")
		if code != http.StatusOK {
			t.Fatalf("post-restart class %s report status %d", cls, code)
		}
		if !bytes.Equal(body, before[cls]) {
			t.Errorf("class %s report changed across restart:\n got: %s\nwant: %s", cls, body, before[cls])
		}
	}
	if got := driftBody(t, ts2.URL); !bytes.Equal(got, driftBefore) {
		t.Errorf("drift log changed across restart:\n got: %s\nwant: %s", got, driftBefore)
	}
	if code, _, body := get(t, ts2.URL+"/interfaces", ""); code != http.StatusOK || !bytes.Contains(body, []byte(`"fingerprint"`)) {
		t.Errorf("post-restart interfaces status %d body %s", code, body)
	}
}
