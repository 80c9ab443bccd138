package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/qlog"
)

// PipelinePerfRun is one extraction pass of the pipeline perf harness.
type PipelinePerfRun struct {
	Mode       string  `json:"mode"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Throughput float64 `json:"queries_per_sec"`
	FullParses int     `json:"full_parses"`
	CacheHits  int     `json:"cache_hits"`
	Areas      int     `json:"areas"`
}

// PipelinePerfResult is the outcome of the extraction-pipeline perf
// experiment: the Table-1 workload extracted uncached (the seed behaviour),
// through the template cache, and through the streaming front end, with the
// equivalence guards the cache must satisfy. cmd/benchreport serialises it
// to BENCH_pipeline.json so successive PRs have a perf trajectory.
type PipelinePerfResult struct {
	Queries           int             `json:"queries"`
	Seed              int64           `json:"seed"`
	Uncached          PipelinePerfRun `json:"before_uncached"`
	Cached            PipelinePerfRun `json:"after_cached"`
	Stream            PipelinePerfRun `json:"after_cached_stream"`
	ParseRatio        float64         `json:"parse_ratio"` // uncached full parses / cached full parses
	SpeedupX          float64         `json:"speedup_x"`
	IdenticalAreas    bool            `json:"identical_areas"`
	IdenticalStats    bool            `json:"identical_stats"`
	IdenticalClusters bool            `json:"identical_clusters"`
	Report            string          `json:"-"`
}

// RunPipelinePerf executes the extraction perf comparison: the same workload
// through the uncached slow path, the template cache, and RunStream,
// verifying bit-identical areas, identical semantic Stats counters, and
// identical final clusters, and measuring how many full parses the cache
// avoids.
func (e *Env) RunPipelinePerf() *PipelinePerfResult {
	run := func(mode string, noCache, streaming bool) (PipelinePerfRun, []qlog.AreaRecord, *qlog.Stats) {
		ex := &extract.Extractor{Schema: e.Schema, Stats: e.Stats}
		p := &qlog.Pipeline{Extractor: ex, NoCache: noCache}
		var (
			areas []qlog.AreaRecord
			st    *qlog.Stats
		)
		t0 := time.Now()
		if streaming {
			st = p.RunStream(context.Background(), qlog.SliceSource(e.Records), func(ar qlog.AreaRecord) {
				areas = append(areas, ar)
			})
		} else {
			areas, st = p.Run(e.Records)
		}
		elapsed := time.Since(t0)
		return PipelinePerfRun{
			Mode:       mode,
			ElapsedMS:  float64(elapsed.Microseconds()) / 1e3,
			Throughput: float64(st.Total) / elapsed.Seconds(),
			FullParses: st.FullParses,
			CacheHits:  st.CacheHits,
			Areas:      len(areas),
		}, areas, st
	}
	uncached, uncachedAreas, uncachedStats := run("uncached", true, false)
	cached, cachedAreas, cachedStats := run("cached", false, false)
	stream, streamAreas, streamStats := run("cached-stream", false, true)

	mine := func(areas []qlog.AreaRecord) *core.Result {
		m := core.NewMiner(core.Config{Schema: e.Schema, Stats: e.Stats, Seed: e.Seed})
		return m.MineAreas(areas)
	}
	uncachedRes := mine(uncachedAreas)
	cachedRes := mine(cachedAreas)

	out := &PipelinePerfResult{
		Queries: e.Scale, Seed: e.Seed,
		Uncached: uncached, Cached: cached, Stream: stream,
		IdenticalAreas: sameAreas(uncachedAreas, cachedAreas) &&
			sameAreas(uncachedAreas, streamAreas),
		IdenticalStats: sameSemanticStats(uncachedStats, cachedStats) &&
			sameSemanticStats(uncachedStats, streamStats),
		IdenticalClusters: sameClusters(uncachedRes, cachedRes),
	}
	if cached.FullParses > 0 {
		out.ParseRatio = float64(uncached.FullParses) / float64(cached.FullParses)
	}
	if cached.ElapsedMS > 0 {
		out.SpeedupX = uncached.ElapsedMS / cached.ElapsedMS
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Pipeline perf — template cache + streaming front end vs uncached (%d queries)\n", out.Queries)
	row := func(r PipelinePerfRun) {
		fmt.Fprintf(&b, "  %-14s %10.1f ms   %8.0f q/s   %7d full parses   %7d cache hits   %6d areas\n",
			r.Mode, r.ElapsedMS, r.Throughput, r.FullParses, r.CacheHits, r.Areas)
	}
	row(uncached)
	row(cached)
	row(stream)
	fmt.Fprintf(&b, "full parses: %.2fx fewer with the cache; wall clock: %.2fx; identical areas: %v, stats: %v, clusters: %v\n",
		out.ParseRatio, out.SpeedupX, out.IdenticalAreas, out.IdenticalStats, out.IdenticalClusters)
	out.Report = b.String()
	return out
}

// sameAreas reports whether two extraction passes produced bit-identical
// results: the same records, in the same order, with identical areas.
func sameAreas(a, b []qlog.AreaRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Record.Seq != b[i].Record.Seq {
			return false
		}
		x, y := a[i].Area, b[i].Area
		if x.Key() != y.Key() || x.Exact != y.Exact || x.Truncated != y.Truncated {
			return false
		}
		if len(x.Referenced) != len(y.Referenced) {
			return false
		}
		for j := range x.Referenced {
			if x.Referenced[j] != y.Referenced[j] {
				return false
			}
		}
	}
	return true
}

// sameSemanticStats compares the deterministic pipeline counters. FullParses,
// CacheHits and the stage timings are scheduling telemetry and
// deliberately excluded.
func sameSemanticStats(a, b *qlog.Stats) bool {
	if a.Total != b.Total || a.Parsed != b.Parsed || a.Extracted != b.Extracted ||
		a.ExtractFailures != b.ExtractFailures || a.Truncated != b.Truncated ||
		a.Approximate != b.Approximate || a.EmptyAreas != b.EmptyAreas {
		return false
	}
	if len(a.ParseFailures) != len(b.ParseFailures) {
		return false
	}
	for k, v := range a.ParseFailures {
		if b.ParseFailures[k] != v {
			return false
		}
	}
	return true
}
