package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/wal"
)

// WALPerfResult is the outcome of the durability experiment (E16): the same
// workload ingested with and without the segmented WAL to price the
// group-commit fsync barrier, the raw replay rate of the resulting log, and
// the windowed re-mine read path with and without the segment index.
// cmd/benchreport serialises it to BENCH_wal.json; the identical_* flags are
// the determinism gates (benchcmp fails a true->false flip), while the
// wall-clock rates record the trajectory without gating CI.
type WALPerfResult struct {
	Queries int   `json:"queries"`
	Seed    int64 `json:"seed"`

	// Ingest cost: concurrent burst clients sharing the group-commit
	// barrier, WAL off vs on. Interference on a shared box is strictly
	// additive — background work only ever slows a run — so the fastest
	// off run and the fastest on run over the paired rounds are the
	// cleanest estimate of each side's intrinsic cost, and their ratio is
	// the recorded overhead.
	IngestOffRPS    float64 `json:"ingest_wal_off_records_per_sec"`
	IngestOnRPS     float64 `json:"ingest_wal_on_records_per_sec"`
	WALOverheadFrac float64 `json:"wal_ingest_overhead_frac"`
	// IdenticalReportWALOnOff: logging must be invisible to mining — the
	// flushed report with the WAL on equals the report with it off
	// (sequential ingests: admission order is part of the contract).
	IdenticalReportWALOnOff bool `json:"identical_report_wal_on_off"`

	// Restart: a server rebuilt on the bare log (no snapshot) replays every
	// record and serves the identical report.
	IdenticalReportAfterReplay bool    `json:"identical_report_after_replay"`
	RestartSeconds             float64 `json:"restart_replay_seconds"`

	// Raw replay rate of the log (decode + stream, no mining).
	ReplayRecords int     `json:"replay_records"`
	ReplayRPS     float64 `json:"replay_records_per_sec"`

	// Windowed read: the middle eighth of the record-time range through the
	// segment index vs the scan-everything baseline.
	SegmentsTotal         int     `json:"segments_total"`
	WindowRecords         int     `json:"window_records"`
	WindowSegScanned      int     `json:"window_segments_scanned"`
	WindowSegSkipped      int     `json:"window_segments_skipped"`
	WindowIndexedSeconds  float64 `json:"window_indexed_seconds"`
	WindowScanAllSeconds  float64 `json:"window_scan_all_seconds"`
	WindowIndexedSpeedupX float64 `json:"remine_indexed_speedup_x"`
	// IdenticalRemineWindow: the index is an optimisation, not a filter —
	// both read paths must yield exactly the same records.
	IdenticalRemineWindow bool `json:"identical_remine_window"`

	Report string `json:"-"`
}

// walPerfBursts pushes the records into the server from walClients concurrent
// clients (contiguous slices, bursts within each) and returns the sustained
// admission rate. Concurrency is the point: group commit coalesces the
// clients' durability barriers into shared fsyncs, so the measured overhead
// reflects the amortised cost rather than one client serially paying every
// fsync on a device with variable sync latency.
const (
	walClients = 4
	// walPerfRounds timed off/on pairs are run; each side's fastest round is
	// recorded (interference is additive, so the minimum estimates intrinsic
	// cost). The untimed sequential phase doubles as warmup. Rounds alternate
	// which side runs first (ABBA) so within-round machine drift cannot
	// systematically favour one side.
	walPerfRounds = 9
)

func walPerfBursts(srv *serve.Server, recs []qlog.Record) (float64, error) {
	const burst = 1024
	var wg sync.WaitGroup
	errs := make([]error, walClients)
	per := (len(recs) + walClients - 1) / walClients
	t0 := time.Now()
	for c := 0; c < walClients; c++ {
		lo, hi := c*per, (c+1)*per
		if hi > len(recs) {
			hi = len(recs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(c int, slice []qlog.Record) {
			defer wg.Done()
			for lo := 0; lo < len(slice); lo += burst {
				hi := lo + burst
				if hi > len(slice) {
					hi = len(slice)
				}
				chunk := slice[lo:hi]
				for len(chunk) > 0 {
					n, ierr := srv.IngestRecords(chunk)
					if ierr == serve.ErrClosed {
						errs[c] = ierr
						return
					}
					chunk = chunk[n:]
					if len(chunk) == 0 {
						break
					}
					// A coarse retry cadence on any partial accept: immediate
					// retries chop the stream into sliver-sized calls — each
					// paying a durability barrier for a few dozen records —
					// while a backpressured queue drains at a fixed rate
					// anyway, so waiting for real room costs no throughput.
					time.Sleep(8 * time.Millisecond)
				}
			}
		}(c, recs[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(len(recs)) / time.Since(t0).Seconds(), nil
}

// walPerfSequential pushes the records from one client in bursts — the
// deterministic admission order used for the report-identity gates, since
// concurrent admission interleaves the stream and the reports are only
// byte-reproducible for identical streams.
func walPerfSequential(srv *serve.Server, recs []qlog.Record) error {
	const burst = 256
	for lo := 0; lo < len(recs); lo += burst {
		hi := lo + burst
		if hi > len(recs) {
			hi = len(recs)
		}
		chunk := recs[lo:hi]
		for len(chunk) > 0 {
			n, ierr := srv.IngestRecords(chunk)
			if n > 0 {
				chunk = chunk[n:]
				continue
			}
			if ierr == serve.ErrClosed {
				return ierr
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// walPerfReport ingests sequentially into a fresh server and returns the
// flushed JSON report bytes.
func (e *Env) walPerfReport(cfg serve.Config, recs []qlog.Record) ([]byte, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if err := walPerfSequential(srv, recs); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Flush()
	res, _, _ := srv.Latest("")
	var buf bytes.Buffer
	if err := report.Write(&buf, res, report.JSON, report.Options{Coverage: cfg.Coverage != nil}); err != nil {
		srv.Close()
		return nil, err
	}
	return buf.Bytes(), srv.Close()
}

// RunWALPerf executes E16. Record times are rewritten to the monotonic clock
// loggen -step emits, so time-windowed segment rotation and the windowed
// read have real spans to work with.
func (e *Env) RunWALPerf() *WALPerfResult {
	out := &WALPerfResult{Queries: e.Scale, Seed: e.Seed}
	fail := func(err error) *WALPerfResult {
		out.Report = fmt.Sprintf("E16 walperf: %v\n", err)
		return out
	}

	recs := make([]qlog.Record, len(e.Records))
	copy(recs, e.Records)
	for i := range recs {
		recs[i].Time = int64(i) * 4
	}

	dir, err := os.MkdirTemp("", "walperf-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	walDir := filepath.Join(dir, "wal")
	// Rotate roughly every sixteenth of the record-time span so the windowed
	// read has segments to skip at any -scale.
	window := (recs[len(recs)-1].Time + 1) / 16
	// A queue deep enough that mining rides through the clients' group-commit
	// stalls (applied to both runs — the baseline must be provisioned alike).
	baseCfg := func() serve.Config {
		cfg := e.serveConfig("")
		cfg.QueueSize = 4096
		return cfg
	}
	walOpts := func(cfg serve.Config) serve.Config {
		cfg.WALDir = walDir
		cfg.WALSegmentWindow = window
		return cfg
	}

	// Determinism gates: sequential ingests, flushed reports compared.
	// The WAL-on run also leaves walDir behind for the restart, replay-rate
	// and windowed-read phases (sequential admission keeps its segments
	// time-contiguous).
	offReport, err := e.walPerfReport(baseCfg(), recs)
	if err != nil {
		return fail(fmt.Errorf("WAL-off ingest: %w", err))
	}
	onReport, err := e.walPerfReport(walOpts(baseCfg()), recs)
	if err != nil {
		return fail(fmt.Errorf("WAL-on ingest: %w", err))
	}
	out.IdenticalReportWALOnOff = bytes.Equal(offReport, onReport)

	// Ingest cost: timed concurrent runs, walPerfRounds adjacent off/on
	// pairs. The servers are aborted, not flushed — only admission is being
	// priced.
	timedRun := func(i int, on bool) (float64, error) {
		cfg := baseCfg()
		// Epoch reclustering is disabled for the timed pairs (it is priced by
		// its own experiments): recluster pauses make client completion time
		// bimodal — whether the final burst lands just before or just after a
		// recluster swings elapsed by a full recluster — which buries the
		// WAL delta in phase noise. Extraction still backpressures admission
		// through the queue, so the denominator is the real pipeline rate.
		cfg.EpochAreas = 1 << 30
		runDir := ""
		if on {
			runDir = filepath.Join(dir, fmt.Sprintf("walrun-%d", i))
			cfg.WALDir = runDir
			cfg.WALSegmentWindow = window
		}
		srv, err := serve.NewServer(cfg)
		if err != nil {
			return 0, err
		}
		rps, err := walPerfBursts(srv, recs)
		srv.Abort()
		if runDir != "" {
			os.RemoveAll(runDir)
		}
		if err != nil {
			return 0, fmt.Errorf("timed ingest (wal=%v): %w", on, err)
		}
		return rps, nil
	}
	var bestOff, bestOn float64
	for i := 0; i < walPerfRounds; i++ {
		// ABBA: odd rounds run the WAL side first.
		first := i%2 == 1
		onRPS, err := 0.0, error(nil)
		offRPS := 0.0
		if first {
			onRPS, err = timedRun(i, true)
			if err == nil {
				offRPS, err = timedRun(i, false)
			}
		} else {
			offRPS, err = timedRun(i, false)
			if err == nil {
				onRPS, err = timedRun(i, true)
			}
		}
		if err != nil {
			return fail(err)
		}
		if offRPS > bestOff {
			bestOff = offRPS
		}
		if onRPS > bestOn {
			bestOn = onRPS
		}
	}
	out.IngestOffRPS, out.IngestOnRPS = bestOff, bestOn
	out.WALOverheadFrac = (bestOff - bestOn) / bestOff

	// Restart on the bare log: no snapshot was ever written, so NewServer
	// replays every record before serving.
	t0 := time.Now()
	srv2, err := serve.NewServer(walOpts(baseCfg()))
	if err != nil {
		return fail(fmt.Errorf("restart on WAL: %w", err))
	}
	out.RestartSeconds = time.Since(t0).Seconds()
	srv2.Flush()
	res2, _, _ := srv2.Latest("")
	var replayed bytes.Buffer
	_ = report.Write(&replayed, res2, report.JSON, report.Options{Coverage: true})
	out.IdenticalReportAfterReplay = bytes.Equal(replayed.Bytes(), onReport)
	if err := srv2.Close(); err != nil {
		return fail(err)
	}

	// Raw replay rate and the windowed read paths, straight on the
	// sequentially-written log.
	w, err := wal.Open(walDir, wal.Options{SegmentWindow: window})
	if err != nil {
		return fail(fmt.Errorf("reopening WAL: %w", err))
	}
	defer w.Close()
	out.SegmentsTotal = len(w.Segments())
	t0 = time.Now()
	n := 0
	if err := w.Replay(0, func(rec qlog.Record) error { n++; return nil }); err != nil {
		return fail(fmt.Errorf("replay: %w", err))
	}
	out.ReplayRecords = n
	if el := time.Since(t0).Seconds(); el > 0 {
		out.ReplayRPS = float64(n) / el
	}

	from := recs[len(recs)/2].Time
	to := recs[len(recs)*5/8].Time
	key := func(r qlog.Record) string { return fmt.Sprintf("%d|%d|%s", r.Seq, r.Time, r.SQL) }
	var indexed []string
	t0 = time.Now()
	ist, err := w.ReadWindow(from, to, nil, func(rec qlog.Record, fp uint64) error {
		indexed = append(indexed, key(rec))
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("indexed window read: %w", err))
	}
	out.WindowIndexedSeconds = time.Since(t0).Seconds()
	var scanned []string
	t0 = time.Now()
	_, err = w.ReadWindowScanAll(from, to, nil, func(rec qlog.Record, fp uint64) error {
		scanned = append(scanned, key(rec))
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("scan-all window read: %w", err))
	}
	out.WindowScanAllSeconds = time.Since(t0).Seconds()
	out.WindowRecords = ist.Records
	out.WindowSegScanned = ist.SegmentsScanned
	out.WindowSegSkipped = ist.SegmentsSkipped
	if out.WindowIndexedSeconds > 0 {
		out.WindowIndexedSpeedupX = out.WindowScanAllSeconds / out.WindowIndexedSeconds
	}
	out.IdenticalRemineWindow = len(indexed) == len(scanned)
	if out.IdenticalRemineWindow {
		for i := range indexed {
			if indexed[i] != scanned[i] {
				out.IdenticalRemineWindow = false
				break
			}
		}
	}

	out.Report = out.render()
	return out
}

func (r *WALPerfResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E16 walperf — durable ingest WAL and windowed re-mining (%d queries)\n\n", r.Queries)
	fmt.Fprintf(&b, "ingest (%d clients, fastest of %d paired rounds): %.0f rec/s without WAL, %.0f rec/s with WAL + group-commit fsync (overhead %.1f%%, bound 15%%)\n",
		walClients, walPerfRounds, r.IngestOffRPS, r.IngestOnRPS, 100*r.WALOverheadFrac)
	fmt.Fprintf(&b, "report with WAL identical to without:  %v\n", r.IdenticalReportWALOnOff)
	fmt.Fprintf(&b, "restart on bare log: replayed in %.2fs (raw decode rate %.0f rec/s over %d records), report identical: %v\n",
		r.RestartSeconds, r.ReplayRPS, r.ReplayRecords, r.IdenticalReportAfterReplay)
	fmt.Fprintf(&b, "windowed read (middle eighth of the time range, %d of %d segments skipped): %d records in %.4fs indexed vs %.4fs scanning all (%.1fx), identical record stream: %v\n",
		r.WindowSegSkipped, r.SegmentsTotal, r.WindowRecords, r.WindowIndexedSeconds, r.WindowScanAllSeconds, r.WindowIndexedSpeedupX, r.IdenticalRemineWindow)
	return b.String()
}
