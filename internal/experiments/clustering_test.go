package experiments

import (
	"testing"

	"repro/internal/dbscan"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/qlog"
)

// table1Items extracts and deduplicates the env's Table-1 workload into
// profiles + weights in ModeEndpoint, the shape the miner clusters.
func table1Items(t *testing.T, e *Env) ([]*distance.Profile, []int, *distance.Metric) {
	t.Helper()
	ex := &extract.Extractor{Schema: e.Schema, Stats: e.Stats}
	pipeline := &qlog.Pipeline{Extractor: ex}
	areas, _ := pipeline.Run(e.Records)
	type item struct {
		area   *extract.AccessArea
		weight int
	}
	byKey := map[string]*item{}
	var order []*item
	for i := range areas {
		ar := &areas[i]
		if ar.Area.IsEmpty() {
			continue
		}
		k := ar.Area.Key()
		it, ok := byKey[k]
		if !ok {
			it = &item{area: ar.Area}
			byKey[k] = it
			order = append(order, it)
		}
		it.weight++
	}
	metric := &distance.Metric{Mode: distance.ModeEndpoint, Stats: e.Stats}
	profiles := make([]*distance.Profile, len(order))
	weights := make([]int, len(order))
	for i, it := range order {
		profiles[i] = metric.Profile(it.area)
		weights[i] = it.weight
	}
	return profiles, weights, metric
}

// TestPivotLabelsIdenticalOnTable1Workload is the pivot-index equivalence
// guard: on the Table-1 workload in ModeEndpoint, DBSCAN over pivot-pruned
// regions with the PivotSlackFactor margin — the pruning the miners'
// substrate runs — must produce labels IDENTICAL to the brute-force scan,
// not merely the same partition, because both visit candidates in
// ascending order and the pruning must be lossless for the near-metric
// distance.
func TestPivotLabelsIdenticalOnTable1Workload(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering test")
	}
	env := NewEnv(3000, 42)
	profiles, weights, metric := table1Items(t, env)
	n := len(profiles)
	if n < 200 {
		t.Fatalf("only %d distinct areas extracted", n)
	}
	dist := func(i, j int) float64 { return metric.ProfileDistance(profiles[i], profiles[j]) }
	cfg := dbscan.Config{Eps: 0.06, MinPts: 8, Weights: weights}
	brute := dbscan.Cluster(n, dist, cfg)
	ix := dbscan.NewPivotIndex(n, dist, 8)
	ix.Slack = dbscan.PivotSlackFactor * cfg.Eps
	pivoted := dbscan.ClusterGraph(n, func(i int) []int { return ix.Region(i, cfg.Eps) }, cfg)
	if brute.NumClusters != pivoted.NumClusters {
		t.Fatalf("cluster counts: brute %d vs pivoted %d", brute.NumClusters, pivoted.NumClusters)
	}
	for i := range brute.Labels {
		if brute.Labels[i] != pivoted.Labels[i] {
			t.Fatalf("label %d: brute %d vs pivoted %d", i, brute.Labels[i], pivoted.Labels[i])
		}
	}
}
