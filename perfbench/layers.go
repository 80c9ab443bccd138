package main

import (
	"runtime"

	"repro/internal/memdb"
	"repro/internal/sqlparser"
	"repro/internal/traffic"
)

// stage names a program stage histogram in the obs Default registry.
func stage(name string) string { return "skyaccess_stage_" + name + "_seconds" }

// topStages are the outermost program stages: none runs inside another on
// the same goroutine. They do run on different goroutines (the WAL writer,
// the ingest pump, the request handler), and at one processor a stage's wall
// time also covers the moments another goroutine held the processor, so
// their sum over the run's wall time is an upper bound on the share the
// program's layers account for.
var topStages = []string{
	"serve_ingest_batch", "serve_epoch", "serve_query", "serve_report",
	"wal_append", "wal_fsync", "wal_replay",
}

// gcProbe accumulates allocation, GC cycles and GC CPU over traced rounds.
type gcProbe struct {
	ms0                    runtime.MemStats
	gc0, cpu0              float64
	alloc, cycles, gc, cpu float64
}

func (g *gcProbe) begin() {
	runtime.ReadMemStats(&g.ms0)
	g.gc0, g.cpu0 = gcCPU()
}

func (g *gcProbe) end() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, cpu := gcCPU()
	g.alloc += float64(ms.TotalAlloc - g.ms0.TotalAlloc)
	g.cycles += float64(ms.NumGC - g.ms0.NumGC)
	g.gc += gc - g.gc0
	g.cpu += cpu - g.cpu0
}

// hostProbe measures the share of CPU time the hypervisor stole from the
// host during the run.
type hostProbe struct {
	steal0, tot0 float64
	stealFrac    float64
}

func (h *hostProbe) start() { h.steal0, h.tot0 = cpuTicks() }

func (h *hostProbe) end() {
	steal, tot := cpuTicks()
	if tot > h.tot0 {
		h.stealFrac = (steal - h.steal0) / (tot - h.tot0)
	}
}

// layers computes the per-layer ledger from the traced rounds: program-stage
// deltas averaged per round, the server's counters, the benchmark's own
// spans, and direct timed calls into layers that have no stage.
func layers(in *inputs, ref *reference, traced []*round, tr *tracer,
	walls [2][]float64, gc gcProbe, host hostProbe, cal *calibrator, put func(name, unit string, v float64)) {
	n := float64(len(traced))
	st := map[string]float64{}
	records := 0
	paths := map[string]float64{}
	srv := map[string]float64{}
	wall := 0.0
	for _, r := range traced {
		for k, v := range r.stages {
			st[k] += v / n
		}
		for k, v := range r.metrics {
			if f, ok := v.(float64); ok {
				srv[k] += f / n
			}
		}
		for k, v := range r.paths {
			paths[k] += float64(v) / n
		}
		records += r.records
		wall += r.wallS / n
	}
	sum := func(s string) float64 { return st[stage(s)+"_sum"] }
	count := func(s string) float64 { return st[stage(s)+"_count"] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Client-side latencies are the wall time of the benchmark's spans.
	ack, qms := tr.durationsMs("serve.ingest"), tr.durationsMs("serve.query")
	retries := tr.resends("serve.ingest")

	put("serve.ingest_batch_s", "s", sum("serve_ingest_batch"))
	put("serve.backpressure_retries", "count", float64(retries)/n)
	put("serve.epoch_s", "s", sum("serve_epoch"))
	put("serve.report_ms_p50", "ms", median(tr.durationsMs("serve.report")))
	put("serve.ack_p50_ms", "ms", median(ack))
	put("serve.ack_p99_ms", "ms", quantile(ack, 0.99))
	put("serve.ack_samples", "count", float64(len(ack)))
	put("serve.query_p50_ms", "ms", median(qms))
	put("serve.query_p99_ms", "ms", quantile(qms, 0.99))
	put("serve.query_samples", "count", float64(len(qms)))
	put("serve.query_max_ms", "ms", quantile(qms, 1))

	put("wal.append_s", "s", sum("wal_append"))
	put("wal.fsyncs", "count", st["wal_fsyncs_total"])
	put("wal.fsync_s", "s", sum("wal_fsync"))
	put("wal.replay_s", "s", sum("wal_replay"))

	put("sqlparser.fingerprint_count", "count", count("sqlparser_fingerprint"))
	put("sqlparser.fingerprint_s", "s", sum("sqlparser_fingerprint"))
	put("sqlparser.parse_count", "count", count("sqlparser_parse"))
	put("sqlparser.parse_s", "s", sum("sqlparser_parse"))

	hits, misses := st["skyaccess_extract_template_hits_total"], st["skyaccess_extract_template_misses_total"]
	put("extract.rebind_s", "s", sum("extract_rebind"))
	put("extract.template_hit_ratio", "ratio", ratio(hits, hits+misses))

	put("qlog.extract_s", "s", sum("qlog_extract"))
	put("qlog.cnf_s", "s", sum("qlog_cnf"))
	put("qlog.consolidate_s", "s", sum("qlog_consolidate"))

	put("traffic.observe_us_per_record", "us", observeUsPerRecord(in))

	put("core.epoch_s", "s", sum("core_epoch"))
	put("core.epoch_snapshot_s", "s", sum("core_epoch_snapshot"))
	put("core.epoch_profiles_s", "s", sum("core_epoch_profiles"))
	put("core.epoch_cluster_s", "s", sum("core_epoch_cluster"))
	put("core.epoch_finalize_s", "s", sum("core_epoch_finalize"))
	put("core.distinct_areas", "count", srv["distinct_areas"])

	evals, dhits := srv["distance_evals"], srv["distance_cache_hits"]
	put("distance.evals", "count", evals)
	put("distance.cache_hits", "count", dhits)
	put("distance.hit_ratio", "ratio", ratio(dhits, evals+dhits))

	put("dbscan.pivot_region_count", "count", count("dbscan_pivot_region"))
	put("dbscan.pivot_region_s", "s", sum("dbscan_pivot_region"))
	put("dbscan.pivot_build_s", "s", sum("dbscan_pivot_build"))

	put("aggregate.coverage_s", "s", coverageSeconds(ref))

	put("interestcache.lookup_s", "s", sum("interestcache_lookup"))
	put("interestcache.query_s", "s", sum("interestcache_query"))
	put("interestcache.prefetch_s", "s", sum("interestcache_prefetch"))
	for _, p := range []string{"single", "composed", "agg", "preagg"} {
		put("interestcache.hits_"+p, "count", paths[p])
	}
	put("interestcache.bytes_resident", "B", srv["semcache_bytes_resident"])

	put("memdb.direct_ms_p50", "ms", directMsP50(ref.db, in))

	put("go.alloc_kb_per_record", "KiB", gc.alloc/1024/float64(records))
	put("go.gc_cycles", "count", gc.cycles/n)
	put("go.gc_cpu_frac", "ratio", ratio(gc.gc, gc.cpu))

	put("host.probe_ms", "ms", median(cal.samples)*1000)
	put("host.steal_frac", "ratio", host.stealFrac)

	top := 0.0
	for _, s := range topStages {
		top += sum(s)
	}
	put("ledger.accounted_frac", "ratio", ratio(top, wall))
	put("trace.overhead_frac", "ratio", ratio(median(walls[1]), median(walls[0]))-1)
}

// observeUsPerRecord replays the workload's records through a fresh traffic
// classifier, timing Observe alone (fingerprints are computed beforehand).
func observeUsPerRecord(in *inputs) float64 {
	fps := make([]uint64, len(in.records))
	for i, r := range in.records {
		fps[i], _, _ = sqlparser.Fingerprint(r.SQL) // 0 for unlexable, as the server passes
	}
	var per []float64
	for k := 0; k < 3; k++ {
		c := traffic.NewClassifier(traffic.Config{})
		t := clock()
		for i, r := range in.records {
			c.Observe(r.User, r.Time, fps[i], r.SQL)
		}
		per = append(per, since(t)*1e6/float64(len(in.records)))
	}
	return median(per)
}

// coverageSeconds times Result.AttachCoverage on the reference clustering.
func coverageSeconds(ref *reference) float64 {
	var ts []float64
	for k := 0; k < 3; k++ {
		t := clock()
		ref.res.AttachCoverage(ref.db)
		ts = append(ts, since(t))
	}
	return median(ts)
}

// directSample caps how many checked queries directMsP50 executes.
const directSample = 20

// directMsP50 times direct execution of the first checked queries.
func directMsP50(db *memdb.DB, in *inputs) float64 {
	var ts []float64
	each := func(q *query) {
		if q.check && len(ts) < directSample {
			t := clock()
			_, _ = db.ExecuteSQL(q.sql, queryExec) // replies were checked in the rounds
			ts = append(ts, since(t)*1000)
		}
	}
	for _, q := range in.reads {
		each(q)
	}
	return median(ts)
}
