package serve

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/traffic"
)

// Request-path stage spans (Default registry, shared across servers in one
// process — the histograms describe the process, not one listener).
var (
	ingestBatchStage = obs.NewStage("serve_ingest_batch")
	epochServeStage  = obs.NewStage("serve_epoch")
	reportStage      = obs.NewStage("serve_report")
	queryServeStage  = obs.NewStage("serve_query")
	remineStage      = obs.NewStage("serve_remine")

	// NewServer's recovery, one span per step: the snapshot restore
	// (decode, registry, representatives, traffic state), the WAL open and
	// tail replay, the neighbour-graph install and the anchoring epoch. A
	// step that does not run records nothing.
	recoverRestoreStage = obs.NewStage("serve_recover_restore")
	recoverReplayStage  = obs.NewStage("serve_recover_replay")
	recoverInstallStage = obs.NewStage("serve_recover_install")
	recoverEpochStage   = obs.NewStage("serve_recover_epoch")

	handlerPanics = obs.NewCounter("skyaccess_serve_handler_panics_total",
		"HTTP handler panics Guard recovered and answered 500")
)

// initRegistry builds the server's private metrics registry: every legacy
// /metrics JSON key becomes a function-backed registry metric reading the
// same atomics the handlers always read, so the JSON view and the
// Prometheus view are two renderings of one source of truth. Called once
// from NewServer, before the server is reachable.
func (s *Server) initRegistry() {
	r := obs.NewRegistry()
	s.reg = r

	r.NewGaugeFunc("skyaccess_serve_uptime_seconds",
		"seconds since the server started",
		func() float64 { return time.Since(s.start).Seconds() })
	r.NewCounterFunc("skyaccess_serve_ingest_accepted_total",
		"records admitted to the ingest queue",
		func() float64 { return float64(s.accepted.Load()) })
	r.NewCounterFunc("skyaccess_serve_ingest_rejected_total",
		"records refused by a full queue or a closed server",
		func() float64 { return float64(s.rejected.Load()) })
	r.NewCounterFunc("skyaccess_serve_ingest_processed_total",
		"records drained through the extraction pipeline",
		func() float64 { return float64(s.processedCount()) })
	r.NewGaugeFunc("skyaccess_serve_queue_depth",
		"records waiting in the ingest queue",
		func() float64 { return float64(len(s.queue)) })
	r.NewGaugeFunc("skyaccess_serve_queue_capacity",
		"ingest queue capacity",
		func() float64 { return float64(cap(s.queue)) })
	r.NewGaugeFunc("skyaccess_serve_distinct_areas",
		"distinct access areas admitted to the miner",
		func() float64 { return float64(s.inc.Distinct()) })
	r.NewCounterFunc("skyaccess_serve_epochs_total",
		"re-clustering epochs run",
		func() float64 { return float64(s.epochs.Load()) })
	r.NewGaugeFunc("skyaccess_serve_epoch_last_seconds",
		"duration of the most recent epoch",
		func() float64 { return float64(s.lastEpochNS.Load()) / 1e9 })
	r.NewCounterFunc("skyaccess_serve_epoch_total_seconds",
		"cumulative epoch time",
		func() float64 { return float64(s.totalEpochNS.Load()) / 1e9 })
	r.NewCounterFunc("skyaccess_serve_template_cache_hits_total",
		"pipeline records served by a cached template",
		func() float64 { return float64(s.statsSnapshot().CacheHits) })
	r.NewCounterFunc("skyaccess_serve_template_full_parses_total",
		"pipeline records that took the full parse path",
		func() float64 { return float64(s.statsSnapshot().FullParses) })
	r.NewGaugeFunc("skyaccess_serve_memo_entries",
		"exact-statement memo entries resident in the pipeline's cache",
		func() float64 { return float64(s.pipe.Cache.MemoLen()) })
	r.NewGaugeFunc("skyaccess_serve_memo_off",
		"1 once probation has switched the exact-statement memo off",
		func() float64 { return b2f(s.pipe.Cache.MemoOff()) })
	r.NewCounterFunc("skyaccess_serve_distance_evals_total",
		"kernel distance evaluations across all epochs (lifetime; never resets)",
		func() float64 { return float64(s.inc.DistanceEvals()) })
	r.NewCounterFunc("skyaccess_serve_distance_cache_hits_total",
		"eps-neighbour graph entries clustered without re-evaluation (lifetime; never resets)",
		func() float64 { return float64(s.inc.DistanceCacheHits()) })

	s.snapBytes = r.NewGauge("skyaccess_serve_snapshot_bytes",
		"size of the last snapshot written (0 before the first)")
	s.graphInstalled = r.NewGauge("skyaccess_serve_snapshot_graph_slots_installed",
		"eps-neighbour graph slots the snapshot restore installed, sparing the anchoring epoch their scans")
	s.graphFallbacks = make(map[string]*obs.Counter, len(core.FallbackReasons))
	for _, reason := range core.FallbackReasons {
		s.graphFallbacks[reason] = r.NewCounter("skyaccess_serve_snapshot_graph_fallback_"+reason+"_total",
			"snapshot restores that dropped the neighbour graph (reason: "+reason+") and rebuilt it")
	}

	if s.wal != nil || s.cfg.WALDir != "" {
		// Registered via function so the gauges read whatever WAL the
		// server ends up with (initRegistry runs before the WAL opens).
		r.NewGaugeFunc("skyaccess_serve_wal_next_offset",
			"offset the next WAL append receives (records ever logged)",
			func() float64 {
				if s.wal == nil {
					return 0
				}
				return float64(s.wal.NextOffset())
			})
		r.NewGaugeFunc("skyaccess_serve_wal_durable_offset",
			"fsynced WAL frontier — every record below it survives a crash",
			func() float64 {
				if s.wal == nil {
					return 0
				}
				return float64(s.wal.DurableOffset())
			})
		r.NewGaugeFunc("skyaccess_serve_wal_segments",
			"WAL segments on disk (sealed + active)",
			func() float64 {
				if s.wal == nil {
					return 0
				}
				return float64(len(s.wal.Segments()))
			})
	}

	if t := s.traffic; t != nil {
		for _, cls := range traffic.Classes {
			cc := t.counts[cls]
			r.NewCounterFunc("skyaccess_serve_traffic_"+cls+"_records_total",
				"processed records classified "+cls,
				func() float64 { return float64(cc.total.Load()) })
			r.NewCounterFunc("skyaccess_serve_traffic_"+cls+"_extracted_total",
				"extracted areas fed to the "+cls+" class miner",
				func() float64 { return float64(cc.extracted.Load()) })
		}
		r.NewCounterFunc("skyaccess_serve_traffic_drift_events_total",
			"interest-drift events emitted across forced epochs",
			func() float64 { return float64(t.driftEvents.Load()) })
		r.NewGaugeFunc("skyaccess_serve_traffic_interfaces_tracked",
			"distinct statement fingerprints the interface miner tracks",
			func() float64 { return float64(t.trackedInterfaces()) })
	}

	if s.qcache != nil {
		qc := s.qcache
		r.NewGaugeFunc("skyaccess_semcache_generation",
			"region-set generation the semantic cache serves",
			func() float64 { return float64(qc.Generation()) })
		r.NewGaugeFunc("skyaccess_semcache_regions",
			"regions in the installed set",
			func() float64 { return float64(qc.Metrics().Regions) })
		r.NewCounterFunc("skyaccess_semcache_hits_total",
			"queries answered from a prefetched region",
			func() float64 { return float64(qc.Metrics().Hits) })
		r.NewCounterFunc("skyaccess_semcache_misses_total",
			"queries that fell through to direct execution",
			func() float64 { return float64(qc.Metrics().Misses) })
		r.NewCounterFunc("skyaccess_semcache_bytes_served_total",
			"result bytes served from region stores",
			func() float64 { return float64(qc.Metrics().BytesServed) })
		r.NewCounterFunc("skyaccess_semcache_verify_checked_total",
			"cache hits checked by the byte-identity oracle",
			func() float64 { return float64(qc.Metrics().VerifyChecked) })
		r.NewCounterFunc("skyaccess_semcache_verify_failed_total",
			"oracle checks that found a mismatch",
			func() float64 { return float64(qc.Metrics().VerifyFailed) })
	}
}

// Registry exposes the server's private metrics registry (tests and
// skyserved's debug listener).
func (s *Server) Registry() *obs.Registry { return s.reg }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
