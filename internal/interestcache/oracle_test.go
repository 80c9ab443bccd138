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

// TestHeldOutBudgetOracle replays statements the miner never saw — a fresh
// GenerateLog and a fresh GenerateMixedLog — against regions mined from
// another log, at full, half and quarter of the full residency, with the
// byte-identity oracle on. Each budget point warms the heat book on the
// first half of the replay, re-installs heat-ordered (so the reduced
// budgets evict regions to shadows that collect near-miss heat), then
// replays everything. Every cache-served result must equal direct
// execution, and every budget point must serve hits: at full budget some on
// the agg rung, and at half budget at least 70% of the replay.
func TestHeldOutBudgetOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("held-out budget oracle is slow")
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
	opts := memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}
	newCache := func(budget int64) *interestcache.Cache {
		return interestcache.New(interestcache.Config{
			DB:          env.DB,
			Extractor:   &extract.Extractor{Schema: env.Schema},
			Templates:   &extract.TemplateCache{},
			Exec:        opts,
			Verify:      true,
			BudgetBytes: budget,
		})
	}
	unlimited := newCache(0)
	unlimited.Install(1, res.Clusters)
	full := unlimited.Metrics().BytesResident
	if full == 0 {
		t.Fatal("no regions prefetched")
	}
	for _, budget := range []int64{full, full / 2, full / 4} {
		c := newCache(budget)
		c.Install(1, res.Clusters)
		for _, sql := range stmts[:len(stmts)/2] {
			c.Query(sql)
		}
		c.Install(2, res.Clusters)
		m0 := c.Metrics()
		for _, sql := range stmts {
			c.Query(sql)
		}
		m := c.Metrics()
		hits, aggHits, misses := m.Hits-m0.Hits, m.AggHits-m0.AggHits, m.Misses-m0.Misses
		ratio := float64(hits) / float64(hits+misses)
		t.Logf("budget %d: resident %d in %d regions (%d shadows), hits=%d agg=%d misses=%d ratio=%.3f near_misses=%d verify_checked=%d",
			budget, m.BytesResident, m.Regions, m.ShadowRegions, hits, aggHits,
			misses, ratio, m.NearMisses, m.VerifyChecked)
		if m.VerifyFailed != 0 {
			t.Fatalf("budget %d: %d oracle failures", budget, m.VerifyFailed)
		}
		if hits == 0 {
			t.Fatalf("budget %d: no cache hits", budget)
		}
		if budget == full && aggHits == 0 {
			t.Fatalf("full budget: no hits on the agg rung")
		}
		// 0.90 when the floor was set.
		if budget == full/2 && ratio < 0.70 {
			t.Fatalf("half budget: hit ratio %.3f below 0.70", ratio)
		}
		if m.BytesResident > budget {
			t.Fatalf("budget %d: %d bytes resident", budget, m.BytesResident)
		}
		if budget < full && (m.ShadowRegions == 0 || m.NearMisses == 0) {
			t.Fatalf("budget %d: %d shadows credited %d near-misses; eviction not exercised",
				budget, m.ShadowRegions, m.NearMisses)
		}
	}
}
