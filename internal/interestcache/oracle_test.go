package interestcache_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/interestcache"
	"repro/internal/memdb"
)

// TestWorkloadOracle is the correctness gate of ISSUE 4: mine the Table-1
// synthetic workload, install the clusters, then replay every workload
// statement through the cache with the byte-identity oracle enabled. Every
// cache-served result must be byte-identical to direct execution, and the
// error outcome of every statement (including the workload's parse failures
// and admin junk) must match direct execution exactly.
func TestWorkloadOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload oracle is slow")
	}
	env := experiments.NewEnvRows(2500, 11, 400)
	miner := env.Miner()
	res := miner.MineRecords(env.Records)
	if len(res.Clusters) == 0 {
		t.Fatal("mining produced no clusters")
	}
	opts := memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}
	cache := interestcache.New(interestcache.Config{
		DB:        env.DB,
		Extractor: &extract.Extractor{Schema: env.Schema},
		Templates: &extract.TemplateCache{},
		Exec:      opts,
		Verify:    true,
	})
	cache.Install(1, res.Clusters)
	if len(cache.Regions()) == 0 {
		t.Fatal("no regions prefetched")
	}

	for _, rec := range env.Records {
		rs, info, err := cache.Query(rec.SQL)
		direct, derr := env.DB.ExecuteSQL(rec.SQL, opts)
		if (err == nil) != (derr == nil) {
			t.Fatalf("error mismatch for %q: cache=%v direct=%v", rec.SQL, err, derr)
		}
		if err != nil {
			continue
		}
		if string(interestcache.EncodeResultSet(rs)) != string(interestcache.EncodeResultSet(direct)) {
			t.Fatalf("result mismatch (hit=%v region=%d) for %q", info.Hit, info.RegionID, rec.SQL)
		}
	}
	m := cache.Metrics()
	if m.VerifyFailed != 0 {
		t.Fatalf("oracle failures: %+v", m)
	}
	if m.Hits == 0 {
		t.Fatal("workload produced no cache hits")
	}
	total := m.Hits + m.Misses
	ratio := float64(m.Hits) / float64(total)
	t.Logf("hits=%d misses=%d ratio=%.3f regions=%d verify_checked=%d",
		m.Hits, m.Misses, ratio, m.Regions, m.VerifyChecked)
	if ratio < 0.3 {
		t.Errorf("hit ratio %.3f below sanity floor 0.3", ratio)
	}
}

// TestComposedWorkloadOracle replays the same workload against a region set
// where every splittable cluster is bisected into two half-regions, so
// statements that used to be single-region hits must be assembled from
// covering sets (positional-dedup union stores) and aggregate probes from
// partial-aggregate combines. Every served result — whatever the path —
// must stay byte-identical to direct execution.
func TestComposedWorkloadOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-workload oracle is slow")
	}
	env := experiments.NewEnvRows(2500, 11, 400)
	miner := env.Miner()
	res := miner.MineRecords(env.Records)
	if len(res.Clusters) == 0 {
		t.Fatal("mining produced no clusters")
	}
	opts := memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}
	cache := interestcache.New(interestcache.Config{
		DB:        env.DB,
		Extractor: &extract.Extractor{Schema: env.Schema},
		Templates: &extract.TemplateCache{},
		Exec:      opts,
		Verify:    true,
	})
	split := experiments.SplitClusters(res.Clusters)
	if len(split) <= len(res.Clusters) {
		t.Fatalf("no cluster was splittable: %d -> %d", len(res.Clusters), len(split))
	}
	cache.Install(1, split)

	probes := experiments.AggProbes(res.Clusters)
	statements := make([]string, 0, len(env.Records)+len(probes))
	for _, rec := range env.Records {
		statements = append(statements, rec.SQL)
	}
	statements = append(statements, probes...)
	for _, sql := range statements {
		rs, info, err := cache.Query(sql)
		direct, derr := env.DB.ExecuteSQL(sql, opts)
		if (err == nil) != (derr == nil) {
			t.Fatalf("error mismatch for %q: cache=%v direct=%v", sql, err, derr)
		}
		if err != nil {
			continue
		}
		if string(interestcache.EncodeResultSet(rs)) != string(interestcache.EncodeResultSet(direct)) {
			t.Fatalf("result mismatch (hit=%v path=%s regions=%v) for %q",
				info.Hit, info.Path, info.Regions, sql)
		}
	}
	m := cache.Metrics()
	if m.VerifyFailed != 0 {
		t.Fatalf("oracle failures: %+v", m)
	}
	if m.ComposedHits == 0 {
		t.Fatal("split regions produced no composed hits")
	}
	if len(probes) > 0 && m.PreaggHits == 0 {
		t.Errorf("aggregate probes produced no partial-aggregate combines (agg=%d preagg=%d)",
			m.AggHits, m.PreaggHits)
	}
	t.Logf("hits=%d misses=%d composed=%d preagg=%d agg=%d verify_checked=%d regions=%d",
		m.Hits, m.Misses, m.ComposedHits, m.PreaggHits, m.AggHits, m.VerifyChecked, m.Regions)
}
