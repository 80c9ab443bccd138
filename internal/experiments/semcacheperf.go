package experiments

import (
	"fmt"
	"math"
	"strconv"
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
// region under the byte oracle, and (7) the budget curve — residency vs hit
// ratio at full, half and quarter budget with heat-based admission.
// cmd/benchreport serialises it to BENCH_semcache.json.
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

	// Aggregate pushdown (v2). The identical_* booleans are the
	// deterministic CI gates — each true only when the rung actually served
	// traffic AND never diverged from direct execution.
	AggProbes int   `json:"agg_probes"`
	AggHits   int64 `json:"agg_hits"`

	IdenticalSingleRegion bool `json:"identical_single_region"`
	IdenticalAgg          bool `json:"identical_agg"`

	// Budget curve (v2): bytes-resident vs hit-ratio at full, half and
	// quarter of the unlimited residency, after a half-log heat warmup.
	FullResidencyBytes   int64         `json:"full_residency_bytes"`
	BudgetCurve          []BudgetPoint `json:"budget_curve"`
	HitRatioAtHalfBudget float64       `json:"hit_ratio_at_half_budget"`

	Report string `json:"-"`
}

// RunSemCachePerf mines the workload, installs the clusters into the cache,
// and measures correctness, hit ratio, speedup, staleness, aggregate
// pushdown and budget behaviour.
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
	res.IdenticalAgg = am.VerifyFailed == 0 && am.AggHits > 0

	if res.OracleFailed != 0 {
		return nil, fmt.Errorf("semcacheperf: %d oracle failures", res.OracleFailed)
	}

	// Phase 7 — budget curve: rebuild the cache under full, half and
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
	fmt.Fprintf(&b, "aggregate pushdown: %d HAVING probes, %d full-aggregate hits\n", r.AggProbes, r.AggHits)
	fmt.Fprintf(&b, "identity gates: single=%v agg=%v\n", r.IdenticalSingleRegion, r.IdenticalAgg)
	fmt.Fprintf(&b, "budget curve (full residency %d bytes):\n", r.FullResidencyBytes)
	for _, pt := range r.BudgetCurve {
		fmt.Fprintf(&b, "  budget %-12d resident %-12d regions %-4d hit ratio %.3f (%d/%d)\n",
			pt.BudgetBytes, pt.BytesResident, pt.RegionsResident, pt.HitRatio, pt.Hits, pt.Hits+pt.Misses)
	}
	return b.String()
}

// AggProbes derives deterministic aggregate statements from the mined
// clusters — the safeShape-rejected HAVING class the aggregate path serves.
// Each probe groups a single-relation numeric cluster by its widest finite
// column over the cluster's full box, so it fits the cluster's own region
// and is answered by full aggregate pushdown:
//
//	SELECT c, COUNT(*), MIN(c), MAX(c) FROM R
//	WHERE <closed conjunction over every box dim> GROUP BY c
//	HAVING COUNT(*) >= 1
//
// Clusters with categorical pins, multiple relations, or any infinite box
// endpoint are skipped.
func AggProbes(clusters []*aggregate.Summary) []string {
	var probes []string
	for _, c := range clusters {
		if len(c.Relations) != 1 || len(c.Categorical) > 0 {
			continue
		}
		d := widestFiniteDim(c)
		if d == "" {
			continue
		}
		rel := c.Relations[0]
		ok := true
		var conj []string
		for _, dim := range c.Box.Dims() {
			r, col, found := strings.Cut(dim, ".")
			if !found || r != rel {
				ok = false
				break
			}
			iv := c.Box.Get(dim)
			if math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
				ok = false
				break
			}
			conj = append(conj, fmt.Sprintf("%s >= %s AND %s <= %s",
				col, sqlNum(iv.Lo), col, sqlNum(iv.Hi)))
		}
		if !ok || len(conj) == 0 {
			continue
		}
		_, gcol, _ := strings.Cut(d, ".")
		probes = append(probes, fmt.Sprintf(
			"SELECT %s, COUNT(*), MIN(%s), MAX(%s) FROM %s WHERE %s GROUP BY %s HAVING COUNT(*) >= 1",
			gcol, gcol, gcol, rel, strings.Join(conj, " AND "), gcol))
	}
	return probes
}

// widestFiniteDim is the widest dimension of the cluster's box with finite
// endpoints on both sides, or "" when none qualifies (point boxes,
// half-open boxes, categorical-only clusters).
func widestFiniteDim(c *aggregate.Summary) string {
	best, bestW := "", 0.0
	for _, d := range c.Box.Dims() {
		iv := c.Box.Get(d)
		if math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			continue
		}
		if w := iv.Hi - iv.Lo; w > bestW {
			best, bestW = d, w
		}
	}
	return best
}

// sqlNum renders a float64 as a plain decimal SQL literal (no exponent —
// 'f' with -1 precision is the shortest decimal that round-trips, so the
// parsed constant is bit-identical to the box endpoint).
func sqlNum(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}
