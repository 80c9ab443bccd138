package serve

import (
	"bytes"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/traffic"
)

// widenRecord is a statement whose ra range moves access(a) on a column
// many mined areas read.
var widenRecord = qlog.Record{Seq: 1 << 20, User: "widen", Class: traffic.Human,
	SQL: "SELECT objid FROM PhotoObjAll WHERE ra BETWEEN -5000 AND 5000"}

// restartCase is a crashed server's directory — a snapshot covering the
// first part of recs and a WAL holding all of them — with the reports an
// uninterrupted run over recs serves.
type restartCase struct {
	base    Config
	dir     string
	recs    []qlog.Record
	reports map[string][]byte // "" and every class → JSON /report
	batch   []byte            // MineRecords over recs, text report with coverage
}

// crashAfterSnapshot runs recs through a traffic-mining server with a WAL:
// a snapshot after the first 500 records and an epoch, then the rest (among
// them a statement that widens access(a)) logged but never snapshotted, then
// a crash.
func crashAfterSnapshot(t *testing.T) *restartCase {
	t.Helper()
	db := testDB()
	recs := taggedRecords(900, 23)
	recs = append(recs[:700:700], append([]qlog.Record{widenRecord}, recs[700:]...)...)
	rc := &restartCase{
		base: Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64, Traffic: &traffic.Config{}},
		dir:  t.TempDir(),
		recs: recs,
	}
	res := core.NewMiner(minerConfig(db)).MineRecords(recs)
	res.AttachCoverage(db)
	var batch bytes.Buffer
	if err := report.Write(&batch, res, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	rc.batch = batch.Bytes()

	ref, err := NewServer(rc.base)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ref.IngestRecords(recs); n != len(recs) || err != nil {
		t.Fatalf("uninterrupted ingest: %d, %v", n, err)
	}
	ref.Flush()
	rc.reports = classReports(t, ref)
	ref.Close()

	cfg := crashConfig(rc.dir, rc.base)
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.IngestRecords(recs[:500]); n != 500 || err != nil {
		t.Fatalf("ingest before the snapshot: %d, %v", n, err)
	}
	s.Flush()
	if err := s.WriteSnapshot(cfg.SnapshotPath); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Registry().Snapshot()["skyaccess_serve_snapshot_bytes"]; got != float64(fi.Size()) {
		t.Errorf("snapshot bytes metric %v, file has %d", got, fi.Size())
	}
	if n, err := s.IngestRecords(recs[500:]); n != len(recs)-500 || err != nil {
		t.Fatalf("ingest after the snapshot: %d, %v", n, err)
	}
	s.Abort()
	return rc
}

// classReports reads the global and every class /report in JSON.
func classReports(t *testing.T, s *Server) map[string][]byte {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	out := map[string][]byte{}
	for _, cls := range append([]string{""}, traffic.Classes...) {
		code, _, body := get(t, ts.URL+"/report?format=json&class="+cls, "")
		if code != 200 {
			t.Fatalf("class %q report status %d", cls, code)
		}
		out[cls] = body
	}
	return out
}

// recover restarts on a copy of the crashed directory, its snapshot
// rewritten by edit when one is given, and checks the recovered reports
// against the uninterrupted run and the batch miner. It returns the server,
// closed by the test's cleanup, and the kernel evaluations its anchoring
// epoch made.
func (rc *restartCase) recover(t *testing.T, edit func(*Snapshot)) (*Server, int64) {
	t.Helper()
	dir := t.TempDir()
	copyTree(t, rc.dir, dir)
	if edit != nil {
		path := filepath.Join(dir, "state.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		edit(snap)
		if data, err = encodeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewServer(crashConfig(dir, rc.base))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	evals := s.inc.DistanceEvals()
	if processed, _ := ingestCounts(s); processed != float64(len(rc.recs)) {
		t.Fatalf("recovered %v of %d records", processed, len(rc.recs))
	}
	for cls, want := range classReports(t, s) {
		if !bytes.Equal(want, rc.reports[cls]) {
			t.Errorf("class %q report after recovery differs from the uninterrupted run:\n got: %s\nwant: %s", cls, want, rc.reports[cls])
		}
	}
	res, _ := s.latest()
	var got bytes.Buffer
	if err := report.Write(&got, res, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), rc.batch) {
		t.Errorf("report after recovery differs from MineRecords:\n got: %s\nwant: %s", got.Bytes(), rc.batch)
	}
	return s, evals
}

// copyTree copies the regular files under src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// graphMetrics reads the restore's graph gauges: slots installed and the
// fallbacks by reason.
func graphMetrics(s *Server) (installed float64, fallbacks map[string]float64) {
	m := s.Registry().Snapshot()
	fallbacks = map[string]float64{}
	for _, reason := range core.FallbackReasons {
		fallbacks[reason] = m["skyaccess_serve_snapshot_graph_fallback_"+reason+"_total"]
	}
	return m["skyaccess_serve_snapshot_graph_slots_installed"], fallbacks
}

// A restart from a v2 snapshot plus a WAL tail that moves access(a) installs
// the snapshot's neighbour graph and serves the global and every class
// report byte-identical to an uninterrupted run (and the global one to
// MineRecords), while its anchoring epoch evaluates fewer distances than a
// restart that rebuilds the graph.
func TestRestartReusesGraph(t *testing.T) {
	rc := crashAfterSnapshot(t)
	s, evals := rc.recover(t, nil)
	installed, fallbacks := graphMetrics(s)
	if installed == 0 {
		t.Fatal("restore installed no graph slots")
	}
	for reason, n := range fallbacks {
		if n != 0 {
			t.Errorf("fallback %s counted %v on an intact snapshot", reason, n)
		}
	}
	_, rebuildEvals := rc.recover(t, func(snap *Snapshot) { snap.Graph = nil })
	t.Logf("anchoring epoch: %d evals with %v slots installed, %d rebuilding", evals, installed, rebuildEvals)
	if evals >= rebuildEvals {
		t.Errorf("anchoring epoch with the graph: %d evals, rebuilding: %d", evals, rebuildEvals)
	}
}

// One restart from a snapshot, a WAL tail and a graph records exactly one
// span in each of recovery's four stages.
func TestRecoveryStages(t *testing.T) {
	rc := crashAfterSnapshot(t)
	stages := map[string]*obs.Stage{
		"restore": recoverRestoreStage,
		"replay":  recoverReplayStage,
		"install": recoverInstallStage,
		"epoch":   recoverEpochStage,
	}
	before := map[string]int64{}
	for name, st := range stages {
		before[name] = st.Count()
	}
	s, _ := rc.recover(t, nil)
	if installed, _ := graphMetrics(s); installed == 0 {
		t.Fatal("restore installed no graph slots")
	}
	for name, st := range stages {
		if got := st.Count() - before[name]; got != 1 {
			t.Errorf("stage %s recorded %d spans in one restart, want 1", name, got)
		}
	}
}

// A graph whose digest does not match the restored areas is dropped and
// counted; the anchoring epoch rebuilds it and the reports are unchanged.
func TestRestartGraphDigestFallback(t *testing.T) {
	rc := crashAfterSnapshot(t)
	s, _ := rc.recover(t, func(snap *Snapshot) { snap.Graph.Digest[0] ^= 1 })
	installed, fallbacks := graphMetrics(s)
	if installed != 0 || fallbacks[core.FallbackDigest] != 1 {
		t.Fatalf("perturbed digest: %v slots installed, fallbacks %v", installed, fallbacks)
	}
}

// testdata/v1_snapshot.json is a version-1 (JSON) snapshot, frozen from the
// encoder that wrote that format: a traffic-mining server (testDB,
// minerConfig, BatchSize 64, a WAL) after the first 120 of
// taggedRecords(400, 31) and a flush. Restored with a WAL tail holding the
// other 280, it must serve MineRecords' report, and the next snapshot it
// writes is version 2 and carries the graph.
func TestRestartFromV1Snapshot(t *testing.T) {
	v1, err := os.ReadFile("testdata/v1_snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	db := testDB()
	recs := taggedRecords(400, 31)
	base := Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64, Traffic: &traffic.Config{}}
	cfg := crashConfig(t.TempDir(), base)

	// Log every record, then crash: the WAL holds all 400.
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := s.IngestRecords(recs); n != len(recs) || err != nil {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	s.Abort()
	if err := os.WriteFile(cfg.SnapshotPath, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	res := core.NewMiner(minerConfig(db)).MineRecords(recs)
	res.AttachCoverage(db)
	var want bytes.Buffer
	if err := report.Write(&want, res, report.Text, report.Options{Coverage: true}); err != nil {
		t.Fatal(err)
	}
	check := func(s *Server) {
		t.Helper()
		if processed, _ := ingestCounts(s); processed != float64(len(recs)) {
			t.Fatalf("recovered %v of %d records", processed, len(recs))
		}
		latest, _ := s.latest()
		var got bytes.Buffer
		if err := report.Write(&got, latest, report.Text, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("report after restore differs from MineRecords:\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
		}
	}

	s, err = NewServer(cfg)
	if err != nil {
		t.Fatalf("restoring the v1 snapshot: %v", err)
	}
	check(s)
	if installed, _ := graphMetrics(s); installed != 0 {
		t.Errorf("a v1 snapshot installed %v graph slots", installed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.SnapshotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(snapshotMagic)) {
		t.Fatalf("the snapshot written after a v1 restore starts %q", data[:16])
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != snapshotVersion || snap.Graph == nil {
		t.Fatalf("rewritten snapshot: version %d, graph %v", snap.Version, snap.Graph != nil)
	}

	s, err = NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
	if installed, _ := graphMetrics(s); installed == 0 {
		t.Error("the v2 restart installed no graph slots")
	}
}

// FuzzSnapshotDecode: arbitrary bytes decode to an error or a Snapshot,
// never a panic, and a decoded graph section validates or is refused
// without one. Seeds: a v2 snapshot with a small graph, a v1 JSON one, and
// their headers.
func FuzzSnapshotDecode(f *testing.F) {
	v2, err := encodeSnapshot(&Snapshot{
		Version: snapshotVersion,
		Mining:  &core.State{Items: []core.ItemState{{SQL: "SELECT 1", Weight: 2}, {SQL: "SELECT 2", Weight: 1}, {SQL: "SELECT 3", Weight: 1}}},
		Graph: &core.GraphState{
			Eps: 0.06, Items: []int32{0, 1, -1}, Digest: make([]byte, 32),
			Offsets: []uint32{0, 1, 1, 1}, Nbrs: []uint32{2}, Stale: []uint32{1},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add([]byte(snapshotMagic))
	f.Add([]byte(`{"version":1,"accepted":3,"mining":{"items":[{"sql":"SELECT 1","seq":1,"weight":3}]}}`))
	f.Add([]byte(`{"version":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.Graph != nil {
			items := 0
			if snap.Mining != nil {
				items = len(snap.Mining.Items)
			}
			_ = snap.Graph.Validate(items)
		}
	})
}
