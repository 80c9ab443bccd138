package experiments

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/skyserver"
)

// ShardRun is one shard-count measurement of the sharded serving stack.
type ShardRun struct {
	Shards int `json:"shards"`
	// IngestSeconds is the slowest shard's isolated ingest wall — the
	// deployment's ingest time, since each shard is a separate machine and
	// the deployment finishes when the last one does. ThroughputRPS is total
	// records over that wall (aggregate deployment throughput).
	IngestSeconds float64 `json:"ingest_seconds"`
	ThroughputRPS float64 `json:"throughput_records_per_sec"`
	Retries429    int     `json:"retries_429"`

	// EpochWallMaxMS is the slowest shard's final (forced, full) epoch — the
	// critical-path re-cluster latency a real multi-node deployment pays,
	// since shards run their epochs on separate machines concurrently.
	EpochWallMaxMS float64 `json:"final_epoch_wall_max_ms"`
	// EpochTotalSumMS is the aggregate epoch CPU time across all shards over
	// the whole run (the total mining work the topology performed).
	EpochTotalSumMS float64 `json:"epoch_wall_total_sum_ms"`
	Epochs          int64   `json:"epochs_total"`
	DistinctAreas   int     `json:"merged_distinct_areas"`
	Clusters        int     `json:"merged_clusters"`

	RouteNSPerRecord float64 `json:"route_ns_per_record"`
	RouteOverheadPct float64 `json:"route_overhead_pct_of_ingest"`
	LoadImbalance    float64 `json:"load_imbalance_max_over_mean"`

	MatchesBatch bool `json:"matches_batch_miner"`
	MergeExact   bool `json:"merge_exact"`
}

// ShardPerfResult is the outcome of the sharded-coordinator experiment: the
// serveperf workload partitioned by the relation-set router at 1, 2, 4 and 8
// shards with mining-lag-bounded admission, so ingest throughput is paced by
// mining capacity and the shard counts are directly comparable. Each shard
// ingests its slice in isolation (the harness is one core; a deployment
// gives each shard its own machine, so per-shard walls compose by max, not
// by timesharing), then runs its final epoch, and the coordinator merges the
// results into the global report that is byte-compared to the batch miner.
// The 1-shard run goes through the identical router/serve/coordinator stack,
// so the speedups isolate sharding itself. cmd/benchreport serialises it to
// BENCH_shard.json.
type ShardPerfResult struct {
	Queries      int   `json:"queries"`
	Seed         int64 `json:"seed"`
	BurstSize    int   `json:"burst_size"`
	EpochAreas   int   `json:"epoch_areas"`
	MaxMiningLag int   `json:"max_mining_lag"`

	Runs []ShardRun `json:"runs"`

	// Headline ratios, 4-shard run over the 1-shard baseline.
	ThroughputSpeedup4x float64 `json:"throughput_speedup_4_shards"`
	EpochWallSpeedup4x  float64 `json:"final_epoch_wall_speedup_4_shards"`

	// IdenticalMergedReport gates (via benchcmp's identical_* rule) that
	// every shard count produced a merged /report byte-identical to the
	// batch miner over the same records.
	IdenticalMergedReport bool `json:"identical_merged_report"`

	Report string `json:"-"`
}

// shardServeConfig is the per-shard server configuration: the serveperf
// shape plus mining-lag-bounded admission, Coverage left to the
// coordinator's merged view.
func shardServeConfig(e *Env, stats *schema.Stats, tcache *extract.TemplateCache, epochAreas, maxLag int) serve.Config {
	return serve.Config{
		Miner: core.Config{
			Schema: e.Schema, Stats: stats, Seed: e.Seed,
		},
		Templates:    tcache,
		QueueSize:    512,
		BatchSize:    128,
		EpochAreas:   epochAreas,
		MaxMiningLag: maxLag,
	}
}

// RunShardPerf measures the sharded coordinator at each shard count.
func (e *Env) RunShardPerf() *ShardPerfResult {
	const (
		burstSize  = 200
		epochAreas = 256
		maxLag     = 512
	)
	shardCounts := []int{1, 2, 4, 8}

	// Batch reference over the identical log with an identically-seeded
	// private registry; its JSON report is the byte-identity oracle.
	batchStats := schema.NewStats()
	skyserver.SeedStats(e.DB, batchStats)
	batchRes := core.NewMiner(core.Config{Schema: e.Schema, Stats: batchStats, Seed: e.Seed}).MineRecords(e.Records)
	batchRes.AttachCoverage(e.DB)
	var batchReport bytes.Buffer
	_ = report.Write(&batchReport, batchRes, report.JSON, report.Options{Coverage: true})

	out := &ShardPerfResult{
		Queries: e.Scale, Seed: e.Seed,
		BurstSize: burstSize, EpochAreas: epochAreas, MaxMiningLag: maxLag,
		IdenticalMergedReport: true,
	}

	for _, n := range shardCounts {
		run, err := e.runOneShardCount(n, burstSize, epochAreas, maxLag, batchReport.Bytes())
		if err != nil {
			out.Report = fmt.Sprintf("shardperf: %d shards: %v\n", n, err)
			out.IdenticalMergedReport = false
			return out
		}
		out.Runs = append(out.Runs, *run)
		if !run.MatchesBatch {
			out.IdenticalMergedReport = false
		}
	}

	base := out.Runs[0]
	for _, run := range out.Runs {
		if run.Shards == 4 {
			if base.ThroughputRPS > 0 {
				out.ThroughputSpeedup4x = run.ThroughputRPS / base.ThroughputRPS
			}
			if run.EpochWallMaxMS > 0 {
				out.EpochWallSpeedup4x = base.EpochWallMaxMS / run.EpochWallMaxMS
			}
		}
	}
	out.Report = out.render()
	return out
}

func (e *Env) runOneShardCount(n, burstSize, epochAreas, maxLag int, batchReport []byte) (*ShardRun, error) {
	stats := schema.NewStats()
	skyserver.SeedStats(e.DB, stats)
	tcache := &extract.TemplateCache{}
	router := shard.NewRouter(n, e.Schema, tcache, 0)
	nodes := make([]shard.Node, n)
	servers := make([]*serve.Server, n)
	for i := 0; i < n; i++ {
		s, err := serve.NewServer(shardServeConfig(e, stats, tcache, epochAreas, maxLag))
		if err != nil {
			return nil, err
		}
		servers[i] = s
		nodes[i] = shard.NewLocalNode(fmt.Sprintf("shard-%d", i), s)
	}

	run := &ShardRun{Shards: n}

	// Phase 1 — route. The warmup-staged router observes the first ~1k
	// area-bearing records, bin-packs the staged keys onto shards, and
	// partitions the log. Staged buffers are delivered at bind time, so each
	// key's records stay in arrival order.
	perShard := make([][]qlog.Record, n)
	staged := make(map[string][]qlog.Record)
	deliver := func() {
		bound := router.BindAll()
		keys := make([]string, 0, len(bound))
		for k := range bound {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			perShard[bound[k]] = append(perShard[bound[k]], staged[k]...)
			delete(staged, k)
		}
	}
	for _, rec := range e.Records {
		i, key := router.Route(rec)
		if i == shard.ShardStaged {
			staged[key] = append(staged[key], rec)
			if router.NeedsBind() {
				deliver()
			}
			continue
		}
		perShard[i] = append(perShard[i], rec)
	}
	// Unconditional: binds whatever is still staged when the log ends short
	// of the warmup horizon.
	deliver()

	// Phase 2 — ingest each shard IN ISOLATION, sequentially. The harness
	// host is one core, so running shards concurrently would just timeslice
	// it and hide the scaling; a real deployment gives each shard its own
	// machine. Each shard's wall clock alone is its machine's ingest time;
	// the deployment finishes when the slowest shard does, so the topology's
	// ingest wall is the max, and throughput is total records over that max.
	shardHTTP := make([]*httptest.Server, n)
	for i := range servers {
		shardHTTP[i] = httptest.NewServer(servers[i].Handler())
		defer shardHTTP[i].Close()
	}
	var maxWall float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for lo := 0; lo < len(perShard[i]); lo += burstSize {
			hi := lo + burstSize
			if hi > len(perShard[i]) {
				hi = len(perShard[i])
			}
			retries, err := postUntilAccepted(shardHTTP[i].URL+"/ingest", perShard[i][lo:hi])
			if err != nil {
				return nil, fmt.Errorf("shard %d ingest: %w", i, err)
			}
			run.Retries429 += retries
		}
		// Quiesce inside the shard's own wall: acceptance is async, and the
		// machine isn't done until its pipeline has mined (and observed into
		// the stats registry) everything it accepted. This is also what makes
		// phase 3 sound — no epoch may run while any shard still observes.
		for {
			tel := servers[i].Telemetry()
			if tel.Processed >= tel.Accepted {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if wall := time.Since(t0).Seconds(); wall > maxWall {
			maxWall = wall
		}
	}
	run.IngestSeconds = maxWall
	if maxWall > 0 {
		run.ThroughputRPS = float64(len(e.Records)) / maxWall
	}

	// Phase 3 — final full epochs, one shard at a time and only after every
	// shard finished ingesting (the shared stats registry is final, so each
	// epoch compiles the same distance profiles a batch mine would). The
	// deployment's re-cluster wall is the slowest shard's epoch, since the
	// machines run them concurrently.
	for i, s := range servers {
		if resp, err := http.Post(shardHTTP[i].URL+"/flush", "", nil); err != nil {
			return nil, err
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("shard %d flush status %d", i, resp.StatusCode)
			}
		}
		tel := s.Telemetry()
		if tel.EpochLastMS > run.EpochWallMaxMS {
			run.EpochWallMaxMS = tel.EpochLastMS
		}
		run.EpochTotalSumMS += tel.EpochTotalMS
		run.Epochs += tel.Epochs
	}

	// Phase 4 — the coordinator merges the per-shard results into the global
	// report (its flush re-asks each shard for an epoch, which the shards'
	// idempotent flush guard answers from the epoch just run).
	coord, err := shard.NewCoordinator(shard.Config{
		Router:    router,
		Nodes:     nodes,
		QueueSize: 512,
		BatchSize: 128,
		Coverage:  e.DB,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	if resp, err := http.Post(ts.URL+"/flush", "", nil); err != nil {
		return nil, err
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("flush status %d", resp.StatusCode)
		}
	}

	merged, _, _ := coord.Latest("")
	if merged != nil {
		run.DistinctAreas = merged.DistinctAreas
		run.Clusters = len(merged.Clusters)
	}
	run.MergeExact = coord.MergeIsExact()

	if routed := router.Routed(); routed > 0 {
		run.RouteNSPerRecord = float64(router.RouteNanos()) / float64(routed)
	}
	if run.IngestSeconds > 0 {
		run.RouteOverheadPct = 100 * float64(router.RouteNanos()) / 1e9 / run.IngestSeconds
	}
	loads := router.Loads()
	var sum, max int64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	if sum > 0 && len(loads) > 0 {
		run.LoadImbalance = float64(max) / (float64(sum) / float64(len(loads)))
	}

	mergedReport, err := fetchReport(ts.URL)
	if err != nil {
		return nil, err
	}
	run.MatchesBatch = bytes.Equal(mergedReport, batchReport)
	return run, nil
}

func (r *ShardPerfResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E15 shardperf — relation-set-sharded coordinator at 1/2/4/8 shards (%d queries, mining-lag bound %d)\n\n",
		r.Queries, r.MaxMiningLag)
	fmt.Fprintf(&b, "%-7s %10s %9s %12s %13s %8s %9s %7s %6s\n",
		"shards", "rec/s", "ingest_s", "final_ep_ms", "ep_total_ms", "route_ns", "imbal", "match", "exact")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%-7d %10.0f %9.2f %12.0f %13.0f %8.0f %9.2f %7v %6v\n",
			run.Shards, run.ThroughputRPS, run.IngestSeconds, run.EpochWallMaxMS,
			run.EpochTotalSumMS, run.RouteNSPerRecord, run.LoadImbalance,
			run.MatchesBatch, run.MergeExact)
	}
	fmt.Fprintf(&b, "\n4-shard speedup vs 1-shard baseline (same coordinator stack):\n")
	fmt.Fprintf(&b, "  ingest throughput: %.2fx\n", r.ThroughputSpeedup4x)
	fmt.Fprintf(&b, "  final epoch wall (slowest shard): %.2fx\n", r.EpochWallSpeedup4x)
	fmt.Fprintf(&b, "merged report identical to batch miner at every shard count: %v\n", r.IdenticalMergedReport)
	return b.String()
}
