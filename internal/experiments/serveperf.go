package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/skyserver"
)

// ServePerfResult is the outcome of the serving-layer load experiment:
// the full synthetic log replayed over HTTP into skyserved's serving core
// with a deliberately small ingest queue, measuring sustained throughput
// and per-burst latency under 429 backpressure, the cross-epoch
// distance-evaluation reuse the incremental miner achieves, and the
// correctness gates — final report identical to the batch miner, zero
// accepted records lost across a graceful shutdown, and a snapshot that
// restores to the identical report. cmd/benchreport serialises it to
// BENCH_serve.json so successive PRs have a perf trajectory.
type ServePerfResult struct {
	Queries       int     `json:"queries"`
	Seed          int64   `json:"seed"`
	QueueSize     int     `json:"queue_size"`
	BurstSize     int     `json:"burst_size"`
	Bursts        int     `json:"bursts"`
	Retries429    int     `json:"retries_429"`
	IngestSeconds float64 `json:"ingest_seconds"`
	ThroughputRPS float64 `json:"throughput_records_per_sec"`
	LatencyP50MS  float64 `json:"burst_latency_p50_ms"`
	LatencyP99MS  float64 `json:"burst_latency_p99_ms"`

	Epochs            int64   `json:"epochs"`
	DistinctAreas     int     `json:"distinct_areas"`
	DistanceEvals     int64   `json:"distance_evals"`
	DistanceHits      int64   `json:"distance_cache_hits"`
	DistanceHitRatio  float64 `json:"distance_cache_hit_ratio"`
	FinalEpochEvals   int64   `json:"final_epoch_evals"`
	FinalEpochReuse   float64 `json:"final_epoch_reuse_ratio"`
	TemplateHitRatio  float64 `json:"template_cache_hit_ratio"`
	EpochLastMS       float64 `json:"epoch_last_ms"`
	EpochTotalMS      float64 `json:"epoch_total_ms"`
	MatchesBatch      bool    `json:"matches_batch_miner"`
	ZeroLossShutdown  bool    `json:"zero_loss_shutdown"`
	SnapshotRoundTrip bool    `json:"snapshot_round_trip"`

	Report string `json:"-"`
}

// serveMetrics mirrors the numeric fields of GET /metrics.
type serveMetrics struct {
	DistanceEvals    int64   `json:"distance_evals"`
	DistanceHits     int64   `json:"distance_cache_hits"`
	DistanceHitRatio float64 `json:"distance_cache_hit_ratio"`
	TemplateHitRatio float64 `json:"template_hit_ratio"`
	Epochs           int64   `json:"epochs"`
	EpochLastMS      float64 `json:"epoch_last_ms"`
	EpochTotalMS     float64 `json:"epoch_total_ms"`
	DistinctAreas    int     `json:"distinct_areas"`
	Accepted         int64   `json:"ingest_accepted"`
}

func fetchMetrics(url string) (serveMetrics, error) {
	var m serveMetrics
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func fetchReport(url string) ([]byte, error) {
	resp, err := http.Get(url + "/report?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("report: %s: %s", resp.Status, buf.String())
	}
	return buf.Bytes(), nil
}

func (e *Env) serveConfig(snapshot string) serve.Config {
	stats := schema.NewStats()
	skyserver.SeedStats(e.DB, stats)
	return serve.Config{
		Miner: core.Config{
			Schema: e.Schema, Stats: stats, Seed: e.Seed,
		},
		Coverage:     e.DB,
		QueueSize:    512,
		BatchSize:    128,
		EpochAreas:   256,
		SnapshotPath: snapshot,
	}
}

// RunServePerf replays the workload into an in-process serving stack.
func (e *Env) RunServePerf() *ServePerfResult {
	const burstSize = 200

	// The reference: the one-shot batch miner over the identical log, with
	// its own identically-seeded registry.
	batchStats := schema.NewStats()
	skyserver.SeedStats(e.DB, batchStats)
	batchRes := core.NewMiner(core.Config{Schema: e.Schema, Stats: batchStats, Seed: e.Seed}).MineRecords(e.Records)
	batchRes.AttachCoverage(e.DB)
	var batchReport bytes.Buffer
	_ = report.Write(&batchReport, batchRes, report.JSON, report.Options{Coverage: true})

	snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("serveperf-%d.json", os.Getpid()))
	defer os.Remove(snapPath)
	os.Remove(snapPath) // never restore a stale run

	srv, err := serve.NewServer(e.serveConfig(snapPath))
	if err != nil {
		return &ServePerfResult{Report: fmt.Sprintf("serveperf: %v\n", err)}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	out := &ServePerfResult{
		Queries: e.Scale, Seed: e.Seed,
		QueueSize: 512, BurstSize: burstSize,
	}

	// Replay as fast as the queue lets us: 429s stall the burst until the
	// pipeline drains, so per-burst latency measures real backpressure.
	var latencies []float64
	t0 := time.Now()
	for lo := 0; lo < len(e.Records); lo += burstSize {
		hi := lo + burstSize
		if hi > len(e.Records) {
			hi = len(e.Records)
		}
		b0 := time.Now()
		retries, err := postUntilAccepted(ts.URL+"/ingest", e.Records[lo:hi])
		if err != nil {
			out.Report = fmt.Sprintf("serveperf: ingest: %v\n", err)
			return out
		}
		out.Retries429 += retries
		latencies = append(latencies, float64(time.Since(b0).Microseconds())/1e3)
		out.Bursts++
	}
	out.IngestSeconds = time.Since(t0).Seconds()
	out.ThroughputRPS = float64(len(e.Records)) / out.IngestSeconds
	sort.Float64s(latencies)
	out.LatencyP50MS = percentile(latencies, 0.50)
	out.LatencyP99MS = percentile(latencies, 0.99)

	// Let the final epoch settle, bracketing it with /metrics to isolate
	// how much distance work the cross-epoch neighbour graph saved it.
	pre, err1 := fetchMetrics(ts.URL)
	http.Post(ts.URL+"/flush", "", nil)
	post, err2 := fetchMetrics(ts.URL)
	if err1 == nil && err2 == nil {
		out.FinalEpochEvals = post.DistanceEvals - pre.DistanceEvals
		finalHits := post.DistanceHits - pre.DistanceHits
		if out.FinalEpochEvals+finalHits > 0 {
			out.FinalEpochReuse = float64(finalHits) / float64(out.FinalEpochEvals+finalHits)
		}
		out.Epochs = post.Epochs
		out.DistinctAreas = post.DistinctAreas
		out.DistanceEvals = post.DistanceEvals
		out.DistanceHits = post.DistanceHits
		out.DistanceHitRatio = post.DistanceHitRatio
		out.TemplateHitRatio = post.TemplateHitRatio
		out.EpochLastMS = post.EpochLastMS
		out.EpochTotalMS = post.EpochTotalMS
	}

	serveReport, err := fetchReport(ts.URL)
	if err == nil {
		out.MatchesBatch = bytes.Equal(serveReport, batchReport.Bytes())
	}

	// Graceful shutdown: drain, final epoch, snapshot. Zero loss means the
	// pipeline extracted exactly the records the replay was told were
	// accepted — all of them, since postUntilAccepted re-sends 429 tails.
	if err := srv.Close(); err == nil {
		if data, rerr := os.ReadFile(snapPath); rerr == nil {
			var snap serve.Snapshot
			if json.Unmarshal(data, &snap) == nil {
				out.ZeroLossShutdown = snap.Accepted == int64(len(e.Records)) &&
					snap.Pipeline != nil && snap.Pipeline.Total == len(e.Records)
			}
		}
	}

	// Restart from the snapshot: the restored server must serve the same
	// report bytes without replaying the log.
	if srv2, rerr := serve.NewServer(e.serveConfig(snapPath)); rerr == nil {
		ts2 := httptest.NewServer(srv2.Handler())
		restored, ferr := fetchReport(ts2.URL)
		out.SnapshotRoundTrip = ferr == nil && bytes.Equal(restored, serveReport)
		ts2.Close()
		srv2.Close()
	}

	out.Report = out.render()
	return out
}

// postUntilAccepted POSTs one NDJSON burst, re-sending the tail a 429 left
// behind until the whole burst is in. It returns the number of 429 rounds.
func postUntilAccepted(url string, chunk []qlog.Record) (int, error) {
	retries := 0
	for len(chunk) > 0 {
		var buf bytes.Buffer
		if err := qlog.WriteJSONL(&buf, chunk); err != nil {
			return retries, err
		}
		resp, err := http.Post(url, "application/x-ndjson", &buf)
		if err != nil {
			return retries, err
		}
		var reply struct {
			Accepted int    `json:"accepted"`
			Error    string `json:"error"`
		}
		decErr := json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return retries, nil
		case http.StatusTooManyRequests:
			if decErr != nil {
				return retries, decErr
			}
			retries++
			chunk = chunk[reply.Accepted:]
			time.Sleep(2 * time.Millisecond)
		default:
			return retries, fmt.Errorf("%s: %s", resp.Status, reply.Error)
		}
	}
	return retries, nil
}

// percentile interpolates the p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := p * float64(len(sorted)-1)
	lo := int(idx)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (r *ServePerfResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E12 serveperf — online mining service under replayed load (%d queries)\n\n", r.Queries)
	fmt.Fprintf(&b, "ingest: %d bursts of %d records through a %d-slot queue in %.2fs (%.0f rec/s sustained, %d backpressure retries)\n",
		r.Bursts, r.BurstSize, r.QueueSize, r.IngestSeconds, r.ThroughputRPS, r.Retries429)
	fmt.Fprintf(&b, "burst latency: p50 %.2fms, p99 %.2fms\n", r.LatencyP50MS, r.LatencyP99MS)
	fmt.Fprintf(&b, "epochs: %d over %d distinct areas (last %.1fms, total %.1fms)\n",
		r.Epochs, r.DistinctAreas, r.EpochLastMS, r.EpochTotalMS)
	fmt.Fprintf(&b, "distance work: %d evals, %d cache hits (lifetime hit ratio %.3f); final epoch: %d evals, reuse ratio %.3f\n",
		r.DistanceEvals, r.DistanceHits, r.DistanceHitRatio, r.FinalEpochEvals, r.FinalEpochReuse)
	fmt.Fprintf(&b, "template cache hit ratio: %.3f\n", r.TemplateHitRatio)
	fmt.Fprintf(&b, "matches batch miner byte-for-byte: %v\n", r.MatchesBatch)
	fmt.Fprintf(&b, "zero-loss graceful shutdown:       %v\n", r.ZeroLossShutdown)
	fmt.Fprintf(&b, "snapshot restore round-trips:      %v\n", r.SnapshotRoundTrip)
	return b.String()
}
