package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/aggregate"
	"repro/internal/extract"
	"repro/internal/interestcache"
	"repro/internal/interval"
	"repro/internal/memdb"
)

// BudgetPoint is one measurement of the budget curve (E18): the cache
// rebuilt under a byte budget, warmed on the first half of the log so the
// heat book learns which regions matter, re-installed heat-ordered, then
// replayed against the full log.
type BudgetPoint struct {
	BudgetBytes     int64   `json:"budget_bytes"`
	BytesResident   int64   `json:"bytes_resident"`
	RegionsResident int     `json:"regions_resident"`
	Hits            int64   `json:"hits"`
	Misses          int64   `json:"misses"`
	HitRatio        float64 `json:"hit_ratio"`
}

// SemCachePerfResult is the outcome of the semantic-result-cache experiment
// (E13 + E18): the Table-1 synthetic workload replayed against the
// interest-driven cache built from the miner's own clusters. Phases: (1) a
// full oracle pass proving every cache-served result byte-identical to
// direct execution, (2) an uncached direct-execution baseline, (3) the
// cached run (hit ratio and speedup), (4) an always-miss run isolating the
// miss-path overhead, (5) a staleness probe — regions mined from the first
// half of the log serving the second half, then re-mined at full coverage,
// (6) aggregate pushdown — derived HAVING probes answered whole from one
// region, (7) composition — every splittable cluster bisected into two
// half-regions, the full workload replayed over covering sets and the
// HAVING probes answered by partial-aggregate combine, all under the byte
// oracle, and (8) the budget curve — residency vs hit ratio at full, half
// and quarter budget with heat-based admission. cmd/benchreport serialises
// it to BENCH_semcache.json.
type SemCachePerfResult struct {
	Queries int   `json:"queries"`
	Seed    int64 `json:"seed"`
	Rows    int   `json:"rows_per_table"`
	Regions int   `json:"regions"`

	OracleChecked int64 `json:"oracle_checked"`
	OracleFailed  int64 `json:"oracle_failed"`

	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	HitRatio    float64 `json:"hit_ratio"`
	BytesServed int64   `json:"bytes_served"`

	DirectSeconds float64 `json:"direct_seconds"`
	CachedSeconds float64 `json:"cached_seconds"`
	Speedup       float64 `json:"speedup"`

	MissSeconds       float64 `json:"miss_seconds"`
	MissOverheadRatio float64 `json:"miss_overhead_ratio"`

	StaleHitRatio float64 `json:"stale_hit_ratio"`
	FreshHitRatio float64 `json:"fresh_hit_ratio"`

	// Composition and aggregate pushdown (v2). ComposedChecked counts the
	// byte-oracle comparisons of the split-region replay; the identical_*
	// booleans are the deterministic CI gates — each true only when the
	// path actually served traffic AND never diverged from direct
	// execution.
	AggProbes       int     `json:"agg_probes"`
	AggHits         int64   `json:"agg_hits"`
	PreaggHits      int64   `json:"preagg_hits"`
	ComposedChecked int64   `json:"composed_checked"`
	ComposedHits    int64   `json:"composed_hits"`
	ComposedRatio   float64 `json:"composed_ratio"`

	IdenticalSingleRegion bool `json:"identical_single_region"`
	IdenticalComposed     bool `json:"identical_composed"`
	IdenticalPreagg       bool `json:"identical_preagg"`

	// Budget curve (v2): bytes-resident vs hit-ratio at full, half and
	// quarter of the unlimited residency, after a half-log heat warmup.
	FullResidencyBytes   int64         `json:"full_residency_bytes"`
	BudgetCurve          []BudgetPoint `json:"budget_curve"`
	HitRatioAtHalfBudget float64       `json:"hit_ratio_at_half_budget"`

	Report string `json:"-"`
}

// RunSemCachePerf mines the workload, installs the clusters into the cache,
// and measures correctness, hit ratio, speedup, staleness, composition,
// aggregate pushdown and budget behaviour.
func RunSemCachePerf(scale int, seed int64) (*SemCachePerfResult, error) {
	env := NewEnvRows(scale, seed, 800)
	miner := env.Miner()
	full := miner.MineRecords(env.Records)
	if len(full.Clusters) == 0 {
		return nil, fmt.Errorf("semcacheperf: mining produced no clusters")
	}
	opts := memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}
	newCache := func(verify bool, budget int64) *interestcache.Cache {
		return interestcache.New(interestcache.Config{
			DB:          env.DB,
			Extractor:   &extract.Extractor{Schema: env.Schema},
			Templates:   &extract.TemplateCache{},
			Exec:        opts,
			Verify:      verify,
			BudgetBytes: budget,
		})
	}
	res := &SemCachePerfResult{Queries: scale, Seed: seed, Rows: 800}

	// Phase 1 — oracle: every cache-served result byte-identical to direct.
	oracle := newCache(true, 0)
	oracle.Install(1, full.Clusters)
	res.Regions = len(oracle.Regions())
	for _, rec := range env.Records {
		oracle.Query(rec.SQL)
	}
	om := oracle.Metrics()
	res.OracleChecked, res.OracleFailed = om.VerifyChecked, om.VerifyFailed
	res.IdenticalSingleRegion = om.VerifyFailed == 0 && om.Hits > 0

	// Phase 2 — direct baseline over the same statements.
	t0 := time.Now()
	for _, rec := range env.Records {
		env.DB.ExecuteSQL(rec.SQL, opts)
	}
	res.DirectSeconds = time.Since(t0).Seconds()

	// Phase 3 — cached run, verification off, templates cold (they warm
	// within the run exactly as a serving process would).
	cached := newCache(false, 0)
	cached.Install(1, full.Clusters)
	t0 = time.Now()
	for _, rec := range env.Records {
		cached.Query(rec.SQL)
	}
	res.CachedSeconds = time.Since(t0).Seconds()
	cm := cached.Metrics()
	res.Hits, res.Misses, res.BytesServed = cm.Hits, cm.Misses, cm.BytesServed
	if total := cm.Hits + cm.Misses; total > 0 {
		res.HitRatio = float64(cm.Hits) / float64(total)
	}
	if res.CachedSeconds > 0 {
		res.Speedup = res.DirectSeconds / res.CachedSeconds
	}
	res.FullResidencyBytes = cm.BytesResident

	// Phase 4 — miss-path overhead: a decoy region on a relation no
	// workload query reads forces the full lookup path (fingerprint,
	// extraction, index probe) on every statement, with every statement
	// still answered directly.
	missOnly := newCache(false, 0)
	decoyBox := interval.NewBox()
	decoyBox.Set("NoSuchRelation.x", interval.Closed(0, 1))
	missOnly.Install(1, []*aggregate.Summary{
		{ID: 999, Relations: []string{"NoSuchRelation"}, Box: decoyBox},
	})
	t0 = time.Now()
	for _, rec := range env.Records {
		missOnly.Query(rec.SQL)
	}
	res.MissSeconds = time.Since(t0).Seconds()
	if res.DirectSeconds > 0 {
		res.MissOverheadRatio = res.MissSeconds / res.DirectSeconds
	}

	// Phase 5 — staleness window: regions mined from the first half of the
	// log serve the second half (the stale regime a slow epoch cadence
	// produces), then a re-mine restores full coverage.
	half := len(env.Records) / 2
	halfRes := env.Miner().MineRecords(env.Records[:half])
	stale := newCache(false, 0)
	stale.Install(1, halfRes.Clusters)
	for _, rec := range env.Records[half:] {
		stale.Query(rec.SQL)
	}
	sm := stale.Metrics()
	if total := sm.Hits + sm.Misses; total > 0 {
		res.StaleHitRatio = float64(sm.Hits) / float64(total)
	}
	stale.Install(2, full.Clusters)
	fresh0 := stale.Metrics()
	for _, rec := range env.Records[half:] {
		stale.Query(rec.SQL)
	}
	fm := stale.Metrics()
	if total := (fm.Hits - fresh0.Hits) + (fm.Misses - fresh0.Misses); total > 0 {
		res.FreshHitRatio = float64(fm.Hits-fresh0.Hits) / float64(total)
	}

	// Phase 6 — aggregate pushdown: HAVING probes derived from the mined
	// clusters, each contained in one region, answered by executing the
	// full aggregate statement on the region store. Verified by the byte
	// oracle.
	probes := AggProbes(full.Clusters)
	res.AggProbes = len(probes)
	aggCache := newCache(true, 0)
	aggCache.Install(1, full.Clusters)
	for _, sql := range probes {
		aggCache.Query(sql)
	}
	am := aggCache.Metrics()
	res.AggHits = am.AggHits
	res.OracleChecked += am.VerifyChecked
	res.OracleFailed += am.VerifyFailed

	// Phase 7 — composition: every splittable cluster bisected into two
	// half-regions, so the workload's former single-region hits now need a
	// covering set (positional-dedup union stores) and the HAVING probes
	// need the partial-aggregate combine. The whole replay runs under the
	// byte oracle.
	splitCache := newCache(true, 0)
	splitCache.Install(1, SplitClusters(full.Clusters))
	for _, rec := range env.Records {
		splitCache.Query(rec.SQL)
	}
	for _, sql := range probes {
		splitCache.Query(sql)
	}
	pm := splitCache.Metrics()
	res.ComposedChecked = pm.VerifyChecked
	res.ComposedHits = pm.ComposedHits
	res.PreaggHits = pm.PreaggHits
	if total := pm.Hits + pm.Misses; total > 0 {
		res.ComposedRatio = float64(pm.ComposedHits) / float64(total)
	}
	res.OracleChecked += pm.VerifyChecked
	res.OracleFailed += pm.VerifyFailed
	res.IdenticalComposed = pm.VerifyFailed == 0 && pm.ComposedHits > 0
	res.IdenticalPreagg = pm.VerifyFailed == 0 && am.VerifyFailed == 0 &&
		pm.PreaggHits > 0 && am.AggHits > 0

	if res.OracleFailed != 0 {
		return nil, fmt.Errorf("semcacheperf: %d oracle failures", res.OracleFailed)
	}

	// Phase 8 — budget curve: rebuild the cache under full, half and
	// quarter of the unlimited residency. Each point cold-installs, warms
	// heat on the first half of the log (hits on residents, near-misses on
	// shadows), re-installs heat-ordered, then replays the full log.
	for _, budget := range []int64{
		res.FullResidencyBytes,
		res.FullResidencyBytes / 2,
		res.FullResidencyBytes / 4,
	} {
		bc := newCache(false, budget)
		bc.Install(1, full.Clusters)
		for _, rec := range env.Records[:half] {
			bc.Query(rec.SQL)
		}
		bc.Install(2, full.Clusters)
		m0 := bc.Metrics()
		for _, rec := range env.Records {
			bc.Query(rec.SQL)
		}
		m1 := bc.Metrics()
		pt := BudgetPoint{
			BudgetBytes:     budget,
			BytesResident:   m1.BytesResident,
			RegionsResident: m1.Regions,
			Hits:            m1.Hits - m0.Hits,
			Misses:          m1.Misses - m0.Misses,
		}
		if total := pt.Hits + pt.Misses; total > 0 {
			pt.HitRatio = float64(pt.Hits) / float64(total)
		}
		res.BudgetCurve = append(res.BudgetCurve, pt)
	}
	res.HitRatioAtHalfBudget = res.BudgetCurve[1].HitRatio

	res.Report = res.render()
	return res, nil
}

func (r *SemCachePerfResult) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E13+E18 semcacheperf — interest-driven semantic result cache v2 (%d queries, %d regions)\n\n", r.Queries, r.Regions)
	fmt.Fprintf(&b, "oracle: %d cache-served results checked against direct execution, %d mismatches\n", r.OracleChecked, r.OracleFailed)
	fmt.Fprintf(&b, "hit ratio: %.3f (%d hits / %d misses), %d bytes served from regions\n", r.HitRatio, r.Hits, r.Misses, r.BytesServed)
	fmt.Fprintf(&b, "latency: direct %.2fs, cached %.2fs — speedup %.2fx\n", r.DirectSeconds, r.CachedSeconds, r.Speedup)
	fmt.Fprintf(&b, "miss path: %.2fs vs %.2fs direct — overhead ratio %.3f\n", r.MissSeconds, r.DirectSeconds, r.MissOverheadRatio)
	fmt.Fprintf(&b, "staleness: half-log regions answer %.3f of the second half; re-mined regions answer %.3f\n", r.StaleHitRatio, r.FreshHitRatio)
	fmt.Fprintf(&b, "aggregate pushdown: %d HAVING probes, %d full-aggregate hits; split regions: %d partial-aggregate combines\n",
		r.AggProbes, r.AggHits, r.PreaggHits)
	fmt.Fprintf(&b, "composition: %d composed hits over split regions (%.3f of replay), %d byte-oracle checks\n",
		r.ComposedHits, r.ComposedRatio, r.ComposedChecked)
	fmt.Fprintf(&b, "identity gates: single=%v composed=%v preagg=%v\n",
		r.IdenticalSingleRegion, r.IdenticalComposed, r.IdenticalPreagg)
	fmt.Fprintf(&b, "budget curve (full residency %d bytes):\n", r.FullResidencyBytes)
	for _, pt := range r.BudgetCurve {
		fmt.Fprintf(&b, "  budget %-12d resident %-12d regions %-4d hit ratio %.3f (%d/%d)\n",
			pt.BudgetBytes, pt.BytesResident, pt.RegionsResident, pt.HitRatio, pt.Hits, pt.Hits+pt.Misses)
	}
	return b.String()
}
