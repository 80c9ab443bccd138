// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md §4 for the experiment index E1-E10). Each benchmark runs
// the corresponding experiment end-to-end per iteration and reports
// domain metrics (clusters recovered, extraction coverage, throughput) next
// to the usual ns/op. Run with:
//
//	go test -bench=. -benchmem
//
// The synthetic scale per iteration is kept moderate (3-5k queries) so the
// full suite completes quickly; cmd/benchreport runs the same experiments
// at the default 20k scale (or any -scale).
package skyaccess_test

import (
	"testing"

	"repro/internal/dbscan"
	"repro/internal/distance"
	"repro/internal/experiments"
	"repro/internal/extract"
	"repro/internal/predicate"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
)

const benchScale = 4000

// E1: Table 1 — the 24 aggregated access areas.
func BenchmarkTable1(b *testing.B) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var matched int
	for i := 0; i < b.N; i++ {
		matched = env.RunTable1().Matched
	}
	b.ReportMetric(float64(matched), "clusters-recovered/24")
}

// E2-E4: Figures 1(a)-(c) — content vs access boxes per subspace.
func BenchmarkFigure1a(b *testing.B) { benchFigure(b, 'a') }
func BenchmarkFigure1b(b *testing.B) { benchFigure(b, 'b') }
func BenchmarkFigure1c(b *testing.B) { benchFigure(b, 'c') }

func benchFigure(b *testing.B, which byte) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var boxes int
	for i := 0; i < b.N; i++ {
		boxes = len(env.RunFigure1(which).Access)
	}
	b.ReportMetric(float64(boxes), "access-boxes")
}

// E5: Section 6.1 extraction coverage (99.46% in the paper).
func BenchmarkExtractionCoverage(b *testing.B) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		cov = env.RunCoverage().Stats.Coverage()
	}
	b.ReportMetric(100*cov, "coverage-%")
}

// E6: Section 6.4 — OLAPClus exact matching shatters the equality cluster.
func BenchmarkOLAPClusExact(b *testing.B) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var r *experiments.OLAPClusResult
	for i := 0; i < b.N; i++ {
		r = env.RunOLAPClusExact()
	}
	b.ReportMetric(float64(r.ExactClusters), "exact-clusters")
	b.ReportMetric(float64(r.OursClusters), "our-clusters")
}

// E7: Section 6.5 — d_conj on raw predicates breaks transformed clusters.
func BenchmarkOLAPClusRaw(b *testing.B) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var broken int
	for i := 0; i < b.N; i++ {
		broken = len(env.RunOLAPClusRaw().Broken)
	}
	b.ReportMetric(float64(broken), "broken-templates")
}

// E8: Section 6.6 — single-threaded pipeline throughput and stage timings
// (paper: ~2,200 q/s on an i5-750).
func BenchmarkPipelineEfficiency(b *testing.B) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var qps float64
	for i := 0; i < b.N; i++ {
		qps = env.RunEfficiency().Throughput
	}
	b.ReportMetric(qps, "queries/s")
}

// E9: Section 6.6 — extraction vs re-issuing every query.
func BenchmarkRequery(b *testing.B) {
	env := experiments.NewEnvRows(600, 42, 400) // re-querying cost scales with rows²; keep per-iteration cost sane
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = env.RunRequery().Speedup
	}
	b.ReportMetric(speedup, "requery-slowdown-x")
}

// E10: ablation — endpoint vs paper-literal d_pred (DESIGN.md §2).
func BenchmarkAblationDistanceMode(b *testing.B) {
	env := experiments.NewEnv(benchScale, 42)
	b.ResetTimer()
	var r *experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = env.RunAblation()
	}
	b.ReportMetric(float64(r.EndpointMatched), "endpoint-recovered/24")
	b.ReportMetric(float64(r.LiteralMatched), "literal-recovered/24")
}

// Section 6.6's CNF pathology: conversion cost with and without the
// 35-predicate cap on a 2^n-clause query shape. The capped variant
// truncates the disjunction's tail to TRUE (collapsing the OR — a sound
// over-approximation); the uncapped variant pays the exponential
// distribution, which is why n is kept at 12 here (the paper saw runaways
// "in the range of hours" on real 35+-predicate queries).
func BenchmarkCNFBlowupCapped(b *testing.B) {
	sel := mustParse(b, skyserver.PathologicalQuery(40))
	ex := extract.New(skyserver.Schema()) // default cap 35
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCNFBlowupUncapped(b *testing.B) {
	sel := mustParse(b, skyserver.PathologicalQuery(12))
	ex := extract.New(skyserver.Schema())
	ex.PredCap = -1 // disabled: full exponential distribution
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(sel); err != nil {
			b.Fatal(err)
		}
	}
}

// --- component micro-benchmarks ---

func mustParse(b *testing.B, sql string) *sqlparser.SelectStatement {
	b.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		b.Fatal(err)
	}
	return sel
}

func BenchmarkParseSimple(b *testing.B) {
	const q = "SELECT u FROM T WHERE u >= 1 AND u <= 8 AND s > 5"
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.ParseSelect(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseNested(b *testing.B) {
	const q = `SELECT * FROM T WHERE T.u > 7 AND EXISTS
		(SELECT * FROM S WHERE S.u = T.u AND S.v < 3 AND EXISTS
			(SELECT * FROM R WHERE R.v = S.v AND R.x < 2))`
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.ParseSelect(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractSimple(b *testing.B) {
	ex := extract.New(skyserver.Schema())
	sel := mustParse(b, "SELECT * FROM SpecObjAll WHERE plate BETWEEN 296 AND 3200 AND class = 'star'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractAggregate(b *testing.B) {
	ex := extract.New(skyserver.Schema())
	sel := mustParse(b, "SELECT plate, SUM(mjd) FROM SpecObjAll WHERE mjd < 52000 GROUP BY plate HAVING SUM(mjd) > 100")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Extract(sel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistanceProfiled(b *testing.B) {
	stats := schema.NewStats()
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 200, Seed: 1})
	skyserver.SeedStats(db, stats)
	ex := extract.New(skyserver.Schema())
	a1, _ := ex.ExtractSQL("SELECT * FROM SpecObjAll WHERE plate BETWEEN 296 AND 3200 AND mjd < 52000")
	a2, _ := ex.ExtractSQL("SELECT * FROM SpecObjAll WHERE plate BETWEEN 300 AND 2900 AND mjd < 52100")
	m := distance.New(stats)
	p1, p2 := m.Profile(a1), m.Profile(a2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ProfileDistance(p1, p2)
	}
}

func BenchmarkDBSCAN2k(b *testing.B) {
	pts := make([]float64, 2000)
	for i := range pts {
		pts[i] = float64(i%40) + float64(i)/10000
	}
	dist := func(i, j int) float64 {
		d := pts[i] - pts[j]
		if d < 0 {
			return -d
		}
		return d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbscan.Cluster(len(pts), dist, dbscan.Config{Eps: 0.5, MinPts: 4})
	}
}

func BenchmarkPipelineParallel(b *testing.B) {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 2000, Seed: 42})
	recs := make([]qlog.Record, len(entries))
	for i, e := range entries {
		recs[i] = qlog.Record{Seq: e.Seq, User: e.User, SQL: e.SQL}
	}
	p := &qlog.Pipeline{Extractor: extract.New(skyserver.Schema())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(recs)
	}
	b.SetBytes(0)
}

func BenchmarkConsolidate(b *testing.B) {
	e := predicate.NewAnd(
		predicate.NewLeaf(predicate.CC("a", predicate.Ge, predicate.Number(1))),
		predicate.NewLeaf(predicate.CC("a", predicate.Ge, predicate.Number(3))),
		predicate.NewLeaf(predicate.CC("a", predicate.Le, predicate.Number(9))),
		predicate.NewOr(
			predicate.NewLeaf(predicate.CC("b", predicate.Lt, predicate.Number(2))),
			predicate.NewLeaf(predicate.CC("b", predicate.Lt, predicate.Number(5))),
		),
	)
	cnf, _ := predicate.ToCNF(e, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = predicate.Consolidate(cnf)
	}
}

// Pivot-pruning ablation: plain O(n²) region queries vs DBSCAN over LAESA
// pivot-pruned regions (with the PivotSlackFactor margin, as the miners'
// substrate runs it) on the same metric workload.
func BenchmarkDBSCANPlain5k(b *testing.B)  { benchPivot(b, false) }
func BenchmarkDBSCANPivots5k(b *testing.B) { benchPivot(b, true) }

func benchPivot(b *testing.B, pivots bool) {
	pts := make([]float64, 5000)
	for i := range pts {
		pts[i] = float64(i%80) + float64(i)/100000
	}
	dist := func(i, j int) float64 {
		d := pts[i] - pts[j]
		if d < 0 {
			return -d
		}
		return d
	}
	cfg := dbscan.Config{Eps: 0.5, MinPts: 4, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pivots {
			ix := dbscan.NewPivotIndex(len(pts), dist, 8)
			ix.Slack = dbscan.PivotSlackFactor * cfg.Eps
			dbscan.ClusterGraph(len(pts), func(i int) []int { return ix.Region(i, cfg.Eps) }, cfg)
		} else {
			dbscan.Cluster(len(pts), dist, cfg)
		}
	}
}

// §6.3 follow-up: per-cluster density contrast.
func BenchmarkDensityContrast(b *testing.B) {
	env := experiments.NewEnv(2000, 42)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(env.RunDensity().Contrasts)
	}
	b.ReportMetric(float64(n), "clusters-measured")
}
