package core

import (
	"repro/internal/aggregate"
	"repro/internal/dbscan"
	"repro/internal/distance"
	"repro/internal/qlog"
)

// Test-only exports for the package core_test files, which may import
// internal/report (itself an importer of core).
var (
	BruteReference = bruteReference
	SameMining     = sameMining
	SeededStats    = seededStats
	SynthRecords   = synthRecords
)

// bruteReference is the miner's oracle: it shares the extraction, the
// deduplication, the relation-set partition rule and the aggregation with
// the miner, but none of the substrate. Every partition is clustered by
// brute-force dbscan.Cluster over pointer profiles and
// Metric.ProfileDistance — no flat kernel, pivot index or neighbour graph —
// with each pair oriented (min, max) by item index, the orientation every
// substrate evaluation uses. It runs at the configured Eps and without
// sampling.
func bruteReference(cfg Config, recs []qlog.Record) *Result {
	m := NewMiner(cfg)
	areaRecs, stats := m.pipeline().Run(recs)
	acc := newItemAccum()
	for i := range areaRecs {
		acc.add(&areaRecs[i])
	}
	items := acc.items
	res := &Result{
		PipelineStats:      stats,
		ContradictoryAreas: acc.contradictory,
		DistinctAreas:      len(items),
		ClusteredAreas:     len(items),
		ChosenEps:          m.cfg.Eps,
	}
	metric := &distance.Metric{Mode: m.cfg.Mode, Stats: m.stats}
	profiles := make([]*distance.Profile, len(items))
	for i, it := range items {
		profiles[i] = metric.Profile(it.Area)
	}
	opts := aggregate.Options{SigmaRule: m.cfg.SigmaRule}
	groups, order := partitionItems(items, m.cfg.Eps)
	for _, key := range order {
		part := groups[key]
		weights := make([]int, len(part))
		for i, idx := range part {
			weights[i] = items[idx].Weight
		}
		dist := func(i, j int) float64 {
			a, b := part[i], part[j]
			if a > b {
				a, b = b, a
			}
			return metric.ProfileDistance(profiles[a], profiles[b])
		}
		dcfg := dbscan.Config{Eps: m.cfg.Eps, MinPts: m.cfg.MinPts, Weights: weights}
		collectPartition(res, items, part, dbscan.Cluster(len(part), dist, dcfg), opts)
	}
	finalizeClusters(res)
	return res
}
