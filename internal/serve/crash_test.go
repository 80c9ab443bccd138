package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/schema"
)

func mustPostFlush(t *testing.T, url string) {
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

// crashConfig points a server config's snapshot + WAL into one temp tree,
// with segments small enough that recovery crosses segment boundaries.
func crashConfig(dir string, cfg Config) Config {
	cfg.SnapshotPath = filepath.Join(dir, "state.json")
	cfg.WALDir = filepath.Join(dir, "wal")
	cfg.WALSegmentBytes = 4096
	return cfg
}

// The crash-recovery gate: a server killed mid-ingest (no final epoch, no
// snapshot — Abort is the in-process kill -9) must, after restart, replay
// the WAL tail past the last snapshot's covered offset and end up serving a
// /report byte-for-byte identical to an uninterrupted run over the same
// records. Three phases: snapshot covers the first third, the second third
// lives only in the WAL when the crash hits, the last third is ingested
// after recovery.
func TestCrashRecoveryReplay(t *testing.T) {
	db := testDB()
	recs := synthRecords(1200, 42)
	dir := t.TempDir()

	batch := core.NewMiner(minerConfig(db)).MineRecords(recs)
	batch.AttachCoverage(db)

	base := Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64}

	// Phase 1: ingest a third, snapshot (covers WAL offset 400), keep going.
	s1, err := NewServer(crashConfig(dir, base))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s1.IngestRecords(recs[:400]); n != 400 || err != nil {
		t.Fatalf("phase 1 ingest: %d, %v", n, err)
	}
	s1.Flush()
	if err := s1.WriteSnapshot(crashConfig(dir, base).SnapshotPath); err != nil {
		t.Fatal(err)
	}
	// Phase 2: these records are acknowledged (IngestRecords returns after
	// the fsync barrier) but never snapshotted — only the WAL has them.
	if n, err := s1.IngestRecords(recs[400:900]); n != 500 || err != nil {
		t.Fatalf("phase 2 ingest: %d, %v", n, err)
	}
	s1.Abort() // crash: no final epoch, no snapshot

	// Restart: snapshot restores the first 400, WAL replay feeds 400..900.
	s2, err := NewServer(crashConfig(dir, base))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Telemetry(); got.Processed != 900 || got.Accepted != 900 {
		t.Fatalf("after recovery: processed %d accepted %d, want 900/900 — acknowledged records were lost", got.Processed, got.Accepted)
	}

	// Phase 3: ingest the rest over HTTP and compare against the oracle.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	if reply := postNDJSON(t, ts.URL, recs[900:]); reply.Accepted != 300 {
		t.Fatalf("phase 3 accepted %d of 300", reply.Accepted)
	}
	mustPostFlush(t, ts.URL)

	for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
		var want bytes.Buffer
		if err := report.Write(&want, batch, f, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		code, _, got := get(t, ts.URL+"/report?format="+string(f), "")
		if code != 200 {
			t.Fatalf("%s report status %d", f, code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s report after crash recovery differs from uninterrupted batch run.\nrecovered:\n%s\nbatch:\n%s", f, got, want.Bytes())
		}
	}
}

// A torn tail — a partial entry the crash left at the end of the active
// segment — must be truncated on recovery, not break it: every record before
// the tear survives, the report matches the batch oracle, and the server
// keeps accepting afterwards.
func TestCrashRecoveryTornTail(t *testing.T) {
	db := testDB()
	recs := synthRecords(600, 42)
	dir := t.TempDir()
	base := Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64}

	s1, err := NewServer(crashConfig(dir, base))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s1.IngestRecords(recs); n != len(recs) || err != nil {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	s1.Abort()

	// Tear the log: append half an entry header plus garbage to the last
	// (active) segment, as a crash mid-write would.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments written: %v", err)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(crashConfig(dir, base))
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer s2.Close()
	if got := s2.Telemetry(); got.Processed != int64(len(recs)) {
		t.Fatalf("after torn-tail recovery: processed %d, want %d", got.Processed, len(recs))
	}
	s2.Flush()

	batch := core.NewMiner(minerConfig(db)).MineRecords(recs)
	batch.AttachCoverage(db)
	var want bytes.Buffer
	if err := report.Write(&want, batch, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	code, _, got := get(t, ts.URL+"/report", "")
	if code != 200 {
		t.Fatalf("report status %d", code)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("report after torn-tail recovery differs from batch run.\nrecovered:\n%s\nbatch:\n%s", got, want.Bytes())
	}

	// The log is still appendable after the truncation.
	more := synthRecords(50, 7)
	if n, err := s2.IngestRecords(more); n != len(more) || err != nil {
		t.Fatalf("post-recovery ingest: %d, %v", n, err)
	}
}

// A Shutdown whose deadline has passed gives up on draining, but it must not
// lose acknowledged records: the pump stops between batches, processed —
// and with it the snapshot's WAL offset — counts only the batches it mined,
// and the restart replays the rest. The pump is held inside its first batch
// until Shutdown has cancelled it, so the deadline always lands mid-drain.
func TestDeadlineShutdownReplaysUnmined(t *testing.T) {
	db := testDB()
	recs := synthRecords(3000, 42)
	dir := t.TempDir()
	base := Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64}

	batch := core.NewMiner(minerConfig(db)).MineRecords(recs)
	batch.AttachCoverage(db)

	s1, err := NewServer(crashConfig(dir, base))
	if err != nil {
		t.Fatal(err)
	}
	s1.snapMu.Lock() // runBatch waits here with the first batch in hand
	if n, err := s1.IngestRecords(recs); n != len(recs) || err != nil {
		s1.snapMu.Unlock()
		t.Fatalf("ingest: %d, %v", n, err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	shut := make(chan error, 1)
	go func() { shut <- s1.Shutdown(expired) }()
	for s1.baseCtx.Err() == nil {
		time.Sleep(time.Millisecond)
	}
	s1.snapMu.Unlock()
	if err := <-shut; !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown past its deadline = %v, want context.Canceled", err)
	}
	if got := s1.Telemetry().Processed; got >= int64(len(recs)) {
		t.Fatalf("pump processed all %d records after its deadline", got)
	}

	s2, err := NewServer(crashConfig(dir, base))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.Flush()
	if got := s2.Telemetry(); got.Processed != int64(len(recs)) || got.Accepted != int64(len(recs)) {
		t.Fatalf("after restart: processed %d accepted %d, want %d", got.Processed, got.Accepted, len(recs))
	}
	if st := s2.StatsSnapshot(); st.Total != len(recs) || st.Extracted != batch.PipelineStats.Extracted {
		t.Fatalf("after restart: pipeline stats cover %d records (%d extracted), want %d (%d)",
			st.Total, st.Extracted, len(recs), batch.PipelineStats.Extracted)
	}

	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
		var want bytes.Buffer
		if err := report.Write(&want, batch, f, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		code, _, got := get(t, ts.URL+"/report?format="+string(f), "")
		if code != 200 {
			t.Fatalf("%s report status %d", f, code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s report after a deadline-bound shutdown differs from the batch run.\nrestarted:\n%s\nbatch:\n%s", f, got, want.Bytes())
		}
	}
}

// Re-mining a [from,to) window through the WAL must equal batch-mining
// exactly that window's records with the same registry state — the segment
// index is an optimisation, never a semantic filter.
func TestRemineWindowEquivalence(t *testing.T) {
	db := testDB()
	recs := synthRecords(1000, 42)
	// Monotonic record times (what loggen -step emits), so time windows map
	// to contiguous record ranges and the segment index has spans to skip.
	for i := range recs {
		recs[i].Time = int64(i) * 4
	}
	dir := t.TempDir()
	cfg := Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64,
		WALDir: filepath.Join(dir, "wal"), WALSegmentBytes: 4096, WALSegmentWindow: 400}

	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n, err := s.IngestRecords(recs); n != len(recs) || err != nil {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	s.Flush()

	// Window = records[300:600) by construction of the synthetic clock.
	from, to := int64(300*4), int64(600*4)
	window := recs[300:600]

	res, stats, err := s.Remine(from, to, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(window) {
		t.Fatalf("remine read %d records, want %d", stats.Records, len(window))
	}
	if stats.SegmentsSkipped == 0 {
		t.Errorf("remine scanned every segment (%d) — the time-range index skipped nothing", stats.SegmentsScanned)
	}

	// Oracle: batch-mine the window's records over a copy of the live
	// registry, exactly as Remine builds its throwaway miner.
	oracleCfg := minerConfig(db)
	oracleStats := schema.NewStats()
	oracleStats.RestoreSnapshot(s.Miner().Stats().Snapshot())
	oracleCfg.Stats = oracleStats
	want := core.NewMiner(oracleCfg).MineRecords(window)

	var wantBuf, gotBuf bytes.Buffer
	if err := report.Write(&wantBuf, want, report.Text, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := report.Write(&gotBuf, res, report.Text, report.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatalf("windowed remine differs from batch-mining the window.\nremine:\n%s\nbatch:\n%s", gotBuf.Bytes(), wantBuf.Bytes())
	}

	// Fingerprint filter: re-mining one statement family reads only that
	// family's records and equals batch-mining exactly those.
	fps := FingerprintsFor([]string{window[0].SQL})
	if len(fps) != 1 {
		t.Fatalf("fingerprints for %q: %v", window[0].SQL, fps)
	}
	fam, fstats, err := s.Remine(from, to, nil, fps)
	if err != nil {
		t.Fatal(err)
	}
	wantFam := 0
	for _, r := range window {
		if got := FingerprintsFor([]string{r.SQL}); len(got) == 1 && got[0] == fps[0] {
			wantFam++
		}
	}
	if fstats.Records != wantFam {
		t.Fatalf("fingerprint-filtered remine read %d records, want %d", fstats.Records, wantFam)
	}
	if fam.DistinctAreas == 0 {
		t.Fatal("fingerprint-filtered remine mined no areas")
	}
}
