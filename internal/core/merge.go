package core

import (
	"repro/internal/qlog"
)

// MergeResults combines per-shard mining results into one global Result, the
// coordinator half of relation-set sharding. It is exact — the merged result
// is what a single batch mine over the union of the shards' records would
// produce — under the sharding invariants:
//
//   - every relation set is owned by exactly one shard (the router's
//     assignment), so no two inputs can contain the same distinct area and
//     no DBSCAN neighbourhood is ever split across inputs;
//   - all shards clustered with the same eps, below the 1/(maxTables+1)
//     partitioning threshold, so clustering really did run per
//     relation-set partition.
//
// Under those invariants every scalar is a plain sum, the cluster multiset
// is the concatenation, and the global Table-1 ordering is re-established by
// the same comparator finalizeClusters applies in a batch run — which also
// re-namespaces the per-shard cluster IDs into one global 1..n sequence.
// Summaries are shallow-copied before re-numbering so the shards' own
// published results are never mutated.
//
// ChosenEps is taken from the first input that clustered anything; callers
// check the equal-eps invariant (the coordinator's MergeIsExact compares
// every shard's ChosenEps). Nil inputs are skipped so callers can pass results from
// shards that have not run an epoch yet.
func MergeResults(parts ...*Result) *Result {
	merged := &Result{}
	stats := &qlog.Stats{}
	haveStats := false
	haveEps := false
	for _, r := range parts {
		if r == nil {
			continue
		}
		merged.DistinctAreas += r.DistinctAreas
		merged.ClusteredAreas += r.ClusteredAreas
		merged.NoiseQueries += r.NoiseQueries
		merged.ContradictoryAreas += r.ContradictoryAreas
		merged.DistanceEvals += r.DistanceEvals
		merged.DistanceCacheHits += r.DistanceCacheHits
		if !haveEps && r.ChosenEps != 0 {
			merged.ChosenEps = r.ChosenEps
			haveEps = true
		}
		if r.PipelineStats != nil {
			stats.Merge(r.PipelineStats)
			haveStats = true
		}
		for _, c := range r.Clusters {
			cp := *c
			merged.Clusters = append(merged.Clusters, &cp)
		}
	}
	if haveStats {
		merged.PipelineStats = stats
	}
	finalizeClusters(merged)
	return merged
}

// MergeExact reports whether relation-set sharding is exact for the given
// eps and the largest relation-set size seen anywhere in the workload: the
// same eps < 1/(maxTables+1) guard partitionItems applies, evaluated against
// the GLOBAL maximum. When it fails, a single batch run would have clustered
// across relation sets, which independent shards cannot reproduce — the
// coordinator surfaces the merged report as approximate.
func MergeExact(eps float64, maxTables int) bool {
	if maxTables < 1 {
		maxTables = 1
	}
	return eps < 1.0/float64(maxTables+1)
}
