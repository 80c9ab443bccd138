package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/qlog"
)

// ClusterPerfRun is one clustering pass of the perf harness.
type ClusterPerfRun struct {
	Backend        string  `json:"backend"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	DistanceEvals  int64   `json:"distance_evals"`
	CacheHits      int64   `json:"cache_hits"`
	Clusters       int     `json:"clusters"`
	NoiseQueries   int     `json:"noise_queries"`
	ClusteredAreas int     `json:"clustered_areas"`
}

// ClusterPerfResult is the outcome of the clustering perf experiment: the
// same Table-1 workload mined brute-force ("before") and through the LAESA
// pivot index ("after"), with the kernel-evaluation counts of each run's
// substrate. Both evaluate each unordered pair at most once, so EvalRatio
// is the pruning's saving alone; CacheHits is 0 for both, since a batch
// mine's substrate starts empty. cmd/benchreport serialises it to
// BENCH_clustering.json so successive changes have a perf trajectory.
type ClusterPerfResult struct {
	Queries           int            `json:"queries"`
	Seed              int64          `json:"seed"`
	DistinctAreas     int            `json:"distinct_areas"`
	Eps               float64        `json:"eps"`
	MinPts            int            `json:"min_pts"`
	Brute             ClusterPerfRun `json:"before_brute_force"`
	Pivot             ClusterPerfRun `json:"after_pivot_index"`
	EvalRatio         float64        `json:"eval_ratio"` // brute evals / pivot evals
	SpeedupX          float64        `json:"speedup_x"`
	IdenticalClusters bool           `json:"identical_clusters"`
	// Kernel is the flat-SoA-vs-pointer distance microbenchmark over this
	// workload's real distinct areas (same shape as the kernelperf scales).
	Kernel *KernelPerfScale `json:"kernelperf,omitempty"`
	Report string           `json:"-"`
}

// RunClusterPerf executes the clustering perf comparison: one shared
// extraction pass, then two full mining runs over the identical areas —
// pivot index off (brute-force neighbour scans) and on (the default) —
// verifying the aggregated output is identical and measuring how many
// distance evaluations the pivot pruning avoids.
func (e *Env) RunClusterPerf() *ClusterPerfResult {
	ex := &extract.Extractor{Schema: e.Schema, Stats: e.Stats}
	pipeline := &qlog.Pipeline{Extractor: ex}
	areas, _ := pipeline.Run(e.Records)

	run := func(backend string, disable bool) (ClusterPerfRun, *core.Result) {
		m := core.NewMiner(core.Config{
			Schema: e.Schema, Stats: e.Stats, Seed: e.Seed,
			DisablePivotIndex: disable,
		})
		t0 := time.Now()
		res := m.MineAreas(areas)
		elapsed := time.Since(t0)
		return ClusterPerfRun{
			Backend:        backend,
			ElapsedMS:      float64(elapsed.Microseconds()) / 1e3,
			DistanceEvals:  res.DistanceEvals,
			CacheHits:      res.DistanceCacheHits,
			Clusters:       len(res.Clusters),
			NoiseQueries:   res.NoiseQueries,
			ClusteredAreas: res.ClusteredAreas,
		}, res
	}
	brute, bruteRes := run("brute-force", true)
	pivot, pivotRes := run("pivot-index", false)

	out := &ClusterPerfResult{
		Queries: e.Scale, Seed: e.Seed,
		DistinctAreas: bruteRes.DistinctAreas,
		Eps:           bruteRes.ChosenEps, MinPts: 8,
		Brute: brute, Pivot: pivot,
		IdenticalClusters: sameClusters(bruteRes, pivotRes),
	}
	if pivot.DistanceEvals > 0 {
		out.EvalRatio = float64(brute.DistanceEvals) / float64(pivot.DistanceEvals)
	}
	if pivot.ElapsedMS > 0 {
		out.SpeedupX = brute.ElapsedMS / pivot.ElapsedMS
	}

	// The same distinct areas the miner clustered, through the distance
	// microbenchmark: evals/sec and early-exit rate on real workload shapes.
	seen := make(map[string]struct{}, len(areas))
	var distinct []*extract.AccessArea
	for i := range areas {
		a := areas[i].Area
		if a.IsEmpty() {
			continue
		}
		key := a.Key()
		if _, ok := seen[key]; ok {
			continue
		}
		seen[key] = struct{}{}
		distinct = append(distinct, a)
	}
	out.Kernel = benchKernelAreas(distance.ModeEndpoint, e.Stats, distinct, kernelPairBudget, e.Seed)

	var b strings.Builder
	fmt.Fprintf(&b, "Clustering perf — pivot-index region queries vs brute force (%d queries, %d distinct areas)\n",
		out.Queries, out.DistinctAreas)
	row := func(r ClusterPerfRun) {
		fmt.Fprintf(&b, "  %-12s %10.1f ms   %12d dist evals   %12d cache hits   %4d clusters   %6d noise\n",
			r.Backend, r.ElapsedMS, r.DistanceEvals, r.CacheHits, r.Clusters, r.NoiseQueries)
	}
	row(brute)
	row(pivot)
	fmt.Fprintf(&b, "distance evaluations: %.2fx fewer with pivots; wall clock: %.2fx; identical clusters: %v\n",
		out.EvalRatio, out.SpeedupX, out.IdenticalClusters)
	fmt.Fprintf(&b, "flat kernel over the %d mined areas: %.0f evals/s vs %.0f pointer (%.2fx, early-exit %.4f, identical %v)\n",
		out.Kernel.Areas, out.Kernel.Flat.EvalsPerSec, out.Kernel.Pointer.EvalsPerSec,
		out.Kernel.SpeedupX, out.Kernel.EarlyExitRatio, out.Kernel.IdenticalDistances)
	out.Report = b.String()
	return out
}

// sameClusters reports whether two mining runs produced the same aggregated
// clusters (cardinality, expression, noise) — the end-to-end equivalence
// the pivot index must preserve.
func sameClusters(a, b *core.Result) bool {
	if len(a.Clusters) != len(b.Clusters) || a.NoiseQueries != b.NoiseQueries {
		return false
	}
	for i := range a.Clusters {
		if a.Clusters[i].Cardinality != b.Clusters[i].Cardinality ||
			a.Clusters[i].Expr() != b.Clusters[i].Expr() {
			return false
		}
	}
	return true
}
