package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
	"repro/internal/traffic"
)

// TrafficPerfResult is the outcome of the traffic-class experiment (E17): a
// mixed bot/human/admin workload classified online, the per-class report
// partition gate, drift-log determinism, the mined-interface surface, and the
// ingest cost of running the classifier plus three class miners next to the
// global one. cmd/benchreport serialises it to BENCH_traffic.json; the
// identical_* flags and the per-class classifier precision/recall are the
// benchcmp gates, the wall-clock rates record the trajectory without gating
// CI.
type TrafficPerfResult struct {
	Queries int   `json:"queries"`
	Seed    int64 `json:"seed"`

	// Ground-truth composition of the mixed workload (by user-name prefix).
	BotRecords   int `json:"bot_records"`
	HumanRecords int `json:"human_records"`
	AdminRecords int `json:"admin_records"`

	// Per-class classifier accuracy over users: the online classifier's
	// final per-user verdicts scored against the generator's ground truth.
	UsersScored int                    `json:"users_scored"`
	Classifier  map[string]*ClassScore `json:"classifier"`

	// IdenticalClassPartition: the three per-class reports must be exactly
	// what batch-mining each class's records produces under the full
	// workload's registry evolution — per-class mining partitions one shared
	// extraction stream, it does not re-run it.
	IdenticalClassPartition bool `json:"identical_class_partition"`
	// IdenticalReportTrafficOnOff: class mining must be a pure addition —
	// the classless report with traffic mining on equals a traffic-off
	// server's report over the identical ingest script.
	IdenticalReportTrafficOnOff bool `json:"identical_report_traffic_on_off"`
	// IdenticalDriftRuns: the drift-event log is a pure function of the
	// ingest script — two fresh servers driven through the same bursts and
	// flushes emit byte-identical logs.
	IdenticalDriftRuns bool `json:"identical_drift_runs"`
	DriftEvents        int  `json:"drift_events"`

	// The mined query-interface surface.
	InterfacesTracked int   `json:"interfaces_tracked"`
	TopInterfaceHits  int64 `json:"top_interface_hits"`

	// Ingest cost: concurrent burst clients, traffic mining off vs on,
	// fastest of ABBA-paired rounds (interference is additive, so each
	// side's minimum estimates its intrinsic cost).
	IngestOffRPS        float64 `json:"ingest_traffic_off_records_per_sec"`
	IngestOnRPS         float64 `json:"ingest_traffic_on_records_per_sec"`
	TrafficOverheadFrac float64 `json:"traffic_ingest_overhead_frac"`

	Report string `json:"-"`
}

// ClassScore is one class's user-level confusion summary.
type ClassScore struct {
	Users               int     `json:"users"`
	ClassifierPrecision float64 `json:"classifier_precision"`
	ClassifierRecall    float64 `json:"classifier_recall"`
}

// trafficPerfRounds timed off/on ingest pairs; rounds alternate which side
// runs first (ABBA) so within-round machine drift cannot systematically
// favour one side.
const trafficPerfRounds = 7

// trafficPerfScript drives one fresh server through the canonical two-burst
// ingest-and-flush script (half the log, flush, the rest, flush) — the same
// script every determinism gate replays.
func trafficPerfScript(srv *serve.Server, recs []qlog.Record) error {
	half := len(recs) / 2
	if err := walPerfSequential(srv, recs[:half]); err != nil {
		return err
	}
	srv.Flush()
	if err := walPerfSequential(srv, recs[half:]); err != nil {
		return err
	}
	srv.Flush()
	return nil
}

// RunTrafficPerf executes E17 over a mixed-traffic log (70% bot, 25% human,
// 5% admin — roughly the SkyServer Traffic Report's shape).
func (e *Env) RunTrafficPerf() *TrafficPerfResult {
	out := &TrafficPerfResult{Queries: e.Scale, Seed: e.Seed}
	fail := func(err error) *TrafficPerfResult {
		out.Report = fmt.Sprintf("E17 trafficperf: %v\n", err)
		return out
	}

	mix := skyserver.ClassMix{Bot: 0.70, Human: 0.25, Admin: 0.05}
	entries := skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: e.Scale, Seed: e.Seed}, mix)
	recs := make([]qlog.Record, len(entries))
	for i, en := range entries {
		recs[i] = qlog.Record{Seq: en.Seq, Time: en.Time, User: en.User, SQL: en.SQL}
		switch skyserver.ClassOf(en.User) {
		case traffic.Bot:
			out.BotRecords++
		case traffic.Admin:
			out.AdminRecords++
		default:
			out.HumanRecords++
		}
	}

	onCfg := func() serve.Config {
		cfg := e.serveConfig("")
		cfg.Traffic = &traffic.Config{}
		return cfg
	}

	// The measured server: classifier scoring, the partition gate, the
	// interface surface and drift run A all come off this one run.
	srv, err := serve.NewServer(onCfg())
	if err != nil {
		return fail(err)
	}
	if err := trafficPerfScript(srv, recs); err != nil {
		srv.Close()
		return fail(fmt.Errorf("traffic-on ingest: %w", err))
	}

	// Classifier accuracy: per-user verdicts vs the generator's prefixes.
	tp := map[string]int{}
	fp := map[string]int{}
	fn := map[string]int{}
	verdicts := srv.TrafficUserClasses()
	out.UsersScored = len(verdicts)
	for user, got := range verdicts {
		want := skyserver.ClassOf(user)
		if got == want {
			tp[want]++
		} else {
			fp[got]++
			fn[want]++
		}
	}
	out.Classifier = make(map[string]*ClassScore, len(traffic.Classes))
	for _, cls := range traffic.Classes {
		sc := &ClassScore{Users: tp[cls] + fn[cls]}
		if tp[cls]+fp[cls] > 0 {
			sc.ClassifierPrecision = float64(tp[cls]) / float64(tp[cls]+fp[cls])
		}
		if sc.Users > 0 {
			sc.ClassifierRecall = float64(tp[cls]) / float64(sc.Users)
		}
		out.Classifier[cls] = sc
	}

	// Partition gate. The reference replays the server's exact behaviour
	// from primitives: the same classifier over the same stream assigns the
	// classes, one pipeline pass extracts under the full workload's registry
	// evolution, and each class's areas feed a private incremental miner in
	// stream order.
	refCfg := onCfg()
	clf := traffic.NewClassifier(traffic.Config{})
	tagged := make([]qlog.Record, len(recs))
	copy(tagged, recs)
	classTotal := make(map[string]int)
	for i := range tagged {
		var fprint uint64
		if v, _, ferr := sqlparser.Fingerprint(tagged[i].SQL); ferr == nil {
			fprint = v
		}
		tagged[i].Class = clf.Observe(tagged[i].User, tagged[i].Time, fprint, tagged[i].SQL)
		classTotal[tagged[i].Class]++
	}
	m := core.NewMiner(refCfg.Miner)
	pipe := &qlog.Pipeline{Extractor: &extract.Extractor{Schema: e.Schema, Stats: m.Stats()}}
	areaRecs, _ := pipe.Run(tagged)
	sawClusters := false
	out.IdenticalClassPartition = true
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
		res.AttachCoverage(e.DB)
		var want bytes.Buffer
		if err := report.Write(&want, res, report.JSON, report.Options{Coverage: true}); err != nil {
			srv.Close()
			return fail(err)
		}
		served, _, _ := srv.Latest(cls)
		if served == nil {
			out.IdenticalClassPartition = false
			continue
		}
		var got bytes.Buffer
		if err := report.Write(&got, served, report.JSON, report.Options{Coverage: true}); err != nil {
			srv.Close()
			return fail(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			out.IdenticalClassPartition = false
		}
		if bytes.Contains(got.Bytes(), []byte(`"id"`)) {
			sawClusters = true
		}
	}
	if !sawClusters {
		// A partition of empty reports gates nothing — count it as a failure.
		out.IdenticalClassPartition = false
	}

	// The interface surface and drift run A.
	ifaces, tracked := srv.Interfaces(10)
	out.InterfacesTracked = tracked
	if len(ifaces) > 0 {
		out.TopInterfaceHits = ifaces[0].Hits
	}
	driftA, err := json.Marshal(srv.DriftEvents(""))
	if err != nil {
		srv.Close()
		return fail(err)
	}
	out.DriftEvents = len(srv.DriftEvents(""))

	// Classless invariance: a traffic-off server through the identical
	// script must serve the identical global report.
	globalOn, err := flushedReport(srv)
	if err != nil {
		srv.Close()
		return fail(err)
	}
	if err := srv.Close(); err != nil {
		return fail(err)
	}
	offSrv, err := serve.NewServer(e.serveConfig(""))
	if err != nil {
		return fail(err)
	}
	if err := trafficPerfScript(offSrv, recs); err != nil {
		offSrv.Close()
		return fail(fmt.Errorf("traffic-off ingest: %w", err))
	}
	globalOff, err := flushedReport(offSrv)
	if err != nil {
		offSrv.Close()
		return fail(err)
	}
	if err := offSrv.Close(); err != nil {
		return fail(err)
	}
	out.IdenticalReportTrafficOnOff = bytes.Equal(globalOn, globalOff)

	// Drift determinism: run B replays the script on a fresh server.
	srvB, err := serve.NewServer(onCfg())
	if err != nil {
		return fail(err)
	}
	if err := trafficPerfScript(srvB, recs); err != nil {
		srvB.Close()
		return fail(fmt.Errorf("drift run B ingest: %w", err))
	}
	driftB, err := json.Marshal(srvB.DriftEvents(""))
	if err != nil {
		srvB.Close()
		return fail(err)
	}
	if err := srvB.Close(); err != nil {
		return fail(err)
	}
	out.IdenticalDriftRuns = bytes.Equal(driftA, driftB) && out.DriftEvents > 0

	// Ingest cost: timed concurrent runs, ABBA pairs. Epoch reclustering is
	// disabled (priced by its own experiments) so the delta isolates the
	// classifier, the interface miner and the class miners' area feeds.
	timedRun := func(on bool) (float64, error) {
		cfg := e.serveConfig("")
		cfg.QueueSize = 4096
		cfg.EpochAreas = 1 << 30
		if on {
			cfg.Traffic = &traffic.Config{}
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			return 0, err
		}
		rps, err := walPerfBursts(s, recs)
		s.Abort()
		if err != nil {
			return 0, fmt.Errorf("timed ingest (traffic=%v): %w", on, err)
		}
		return rps, nil
	}
	var bestOff, bestOn float64
	for i := 0; i < trafficPerfRounds; i++ {
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		for _, on := range order {
			rps, err := timedRun(on)
			if err != nil {
				return fail(err)
			}
			if on && rps > bestOn {
				bestOn = rps
			}
			if !on && rps > bestOff {
				bestOff = rps
			}
		}
	}
	out.IngestOffRPS, out.IngestOnRPS = bestOff, bestOn
	if bestOff > 0 {
		out.TrafficOverheadFrac = (bestOff - bestOn) / bestOff
	}

	out.Report = out.render()
	return out
}

// flushedReport flushes the server and renders its latest global report.
func flushedReport(srv *serve.Server) ([]byte, error) {
	srv.Flush()
	res, _, _ := srv.Latest("")
	var buf bytes.Buffer
	if err := report.Write(&buf, res, report.JSON, report.Options{Coverage: true}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (r *TrafficPerfResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E17 trafficperf — traffic-class mining over a mixed workload (%d queries: %d bot / %d human / %d admin)\n\n",
		r.Queries, r.BotRecords, r.HumanRecords, r.AdminRecords)
	fmt.Fprintf(&b, "classifier over %d users (bound 0.95):\n", r.UsersScored)
	for _, cls := range traffic.Classes {
		if sc := r.Classifier[cls]; sc != nil {
			fmt.Fprintf(&b, "  %-6s precision %.3f  recall %.3f  (%d users)\n",
				cls, sc.ClassifierPrecision, sc.ClassifierRecall, sc.Users)
		}
	}
	fmt.Fprintf(&b, "per-class reports partition the global report: %v\n", r.IdenticalClassPartition)
	fmt.Fprintf(&b, "classless report identical to traffic-off server: %v\n", r.IdenticalReportTrafficOnOff)
	fmt.Fprintf(&b, "drift log deterministic across runs: %v (%d events)\n", r.IdenticalDriftRuns, r.DriftEvents)
	fmt.Fprintf(&b, "mined interfaces: %d fingerprints tracked, hottest seen %d times\n", r.InterfacesTracked, r.TopInterfaceHits)
	fmt.Fprintf(&b, "ingest (%d clients, fastest of %d paired rounds): %.0f rec/s traffic off, %.0f rec/s with classifier + 3 class miners (overhead %.1f%%, bound 10%%)\n",
		walClients, trafficPerfRounds, r.IngestOffRPS, r.IngestOnRPS, 100*r.TrafficOverheadFrac)
	return b.String()
}
