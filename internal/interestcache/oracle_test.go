package interestcache_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/interestcache"
	"repro/internal/memdb"
	"repro/internal/skyserver"
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

// TestHeldOutOracle replays statements the miner never saw — a fresh
// GenerateLog and a fresh GenerateMixedLog — against regions mined from
// another log, with the byte-identity oracle on. Every cache-served result
// must equal direct execution, and the replay must serve hits, some of them
// on the agg rung.
func TestHeldOutOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("held-out oracle is slow")
	}
	env := experiments.NewEnvRows(5000, 42, 800)
	res := env.Miner().MineRecords(env.Records)
	if len(res.Clusters) == 0 {
		t.Fatal("mining produced no clusters")
	}
	var stmts []string
	for _, e := range skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 1000, Seed: 7}) {
		stmts = append(stmts, e.SQL)
	}
	for _, e := range skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: 1000, Seed: 9}, skyserver.ClassMix{}) {
		stmts = append(stmts, e.SQL)
	}
	c := interestcache.New(interestcache.Config{
		DB:        env.DB,
		Extractor: &extract.Extractor{Schema: env.Schema},
		Templates: &extract.TemplateCache{},
		Exec:      memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true},
		Verify:    true,
	})
	c.Install(1, res.Clusters)
	if c.Metrics().BytesResident == 0 {
		t.Fatal("no regions prefetched")
	}
	for _, sql := range stmts {
		c.Query(sql)
	}
	m := c.Metrics()
	ratio := float64(m.Hits) / float64(m.Hits+m.Misses)
	t.Logf("resident %d in %d regions, hits=%d agg=%d misses=%d ratio=%.3f verify_checked=%d",
		m.BytesResident, m.Regions, m.Hits, m.AggHits, m.Misses, ratio, m.VerifyChecked)
	if m.VerifyFailed != 0 {
		t.Fatalf("%d oracle failures", m.VerifyFailed)
	}
	if m.Hits == 0 {
		t.Fatal("no cache hits")
	}
	if m.AggHits == 0 {
		t.Fatal("no hits on the agg rung")
	}
}
