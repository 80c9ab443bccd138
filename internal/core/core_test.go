package core

import (
	"math"
	"os"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/distance"
	"repro/internal/interval"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/skyserver"
)

func toRecords(entries []skyserver.LogEntry) []qlog.Record {
	recs := make([]qlog.Record, len(entries))
	for i, e := range entries {
		recs[i] = qlog.Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}

func mineDefault(t *testing.T, queries int, seed int64) *Result {
	t.Helper()
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: queries, Seed: seed})
	// Seed access(a) from a database sample per Section 5.3, like the paper.
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 400, Seed: 1})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: seed, Stats: stats})
	return m.MineRecords(toRecords(entries))
}

// expectation describes one Table-1 ground-truth cluster for recovery
// checks: the relation, a column that must be constrained, and the window
// the aggregated box must approximate.
type expectation struct {
	name     string
	relation string
	column   string
	window   interval.Interval
	empty    bool // expects zero coverage (clusters 18-24)
}

func expectations() []expectation {
	iv := interval.Closed
	return []expectation{
		{"cluster01", "Photoz", "Photoz.objid", iv(1.237657855534432934e18, 1.237666210342830434e18), false},
		{"cluster02", "SpecObjAll", "SpecObjAll.specobjid", iv(1.115887524498139136e18, 2.183177975464224768e18), false},
		{"cluster03", "galSpecLine", "galSpecLine.specobjid", iv(1.345591721622267904e18, 2.007633797213874176e18), false},
		{"cluster04", "galSpecInfo", "galSpecInfo.specobjid", iv(1.4161923255970304e18, 2.183213984470034432e18), false},
		{"cluster05", "PhotoObjAll", "PhotoObjAll.ra", iv(math.Inf(-1), 210), false},
		{"cluster06", "sppLines", "sppLines.specobjid", iv(1.228357946564438016e18, 2.069493422263134208e18), false},
		{"cluster07", "SpecObjAll", "SpecObjAll.ra", iv(54, 115), false},
		{"cluster08", "SpecPhotoAll", "SpecPhotoAll.ra", iv(60, 124), false},
		{"cluster09", "SpecObjAll", "SpecObjAll.mjd", iv(51578, 52178), false},
		{"cluster10", "DBObjects", "", interval.Interval{}, false},
		{"cluster11", "emissionLinesPort", "emissionLinesPort.ra", iv(55, 141), false},
		{"cluster12", "stellarMassPCAWisc", "stellarMassPCAWisc.ra", iv(62, 138), false},
		{"cluster13", "AtlasOutline", "AtlasOutline.objid", iv(1.237676243900255188e18, math.Inf(1)), false},
		{"cluster14", "zooSpec", "zooSpec.dec", iv(30, 70), false},
		{"cluster15", "Photoz", "Photoz.z", iv(0, 0.1), false},
		{"cluster16", "galSpecExtra", "galSpecExtra.bptclass", iv(0, 3), false},
		{"cluster17", "sppParams", "sppParams.fehadop", iv(-0.3, 0.5), false},
		{"cluster18", "PhotoObjAll", "PhotoObjAll.dec", iv(-90, -50), true},
		{"cluster19", "galSpecLine", "galSpecLine.specobjid", iv(3.519644828126257152e18, 5.788299621113984e18), true},
		{"cluster20", "galSpecInfo", "galSpecInfo.specobjid", iv(3.519644828126257152e18, 5.788299621113984e18), true},
		{"cluster21", "sppLines", "sppLines.specobjid", iv(4.037480726273651712e18, 5.788299621113984e18), true},
		{"cluster22", "zooSpec", "zooSpec.dec", iv(-100, -15), true},
		{"cluster23", "Photoz", "Photoz.z", iv(-0.98, -0.1), true},
		{"cluster24", "Photoz", "Photoz.z", iv(3.0, 6.5), true},
	}
}

// findCluster locates a mined cluster matching the expectation: right
// relation, constrained column, and box within (and covering a good part
// of) the expected window.
func findCluster(res *Result, exp expectation) *aggregate.Summary {
	for _, c := range res.Clusters {
		if len(c.Relations) == 0 {
			continue
		}
		hasRel := false
		for _, r := range c.Relations {
			if r == exp.relation {
				hasRel = true
			}
		}
		if !hasRel {
			continue
		}
		if exp.column == "" {
			// cluster10: categorical only.
			if len(c.Categorical) > 0 {
				return c
			}
			continue
		}
		if !c.Box.Has(exp.column) {
			continue
		}
		got := c.Box.Get(exp.column)
		if !endpointMatches(got.Lo, exp.window.Lo, exp.window) ||
			!endpointMatches(got.Hi, exp.window.Hi, exp.window) {
			continue
		}
		return c
	}
	return nil
}

// endpointMatches checks one box endpoint against the expected window
// endpoint: infinite endpoints must agree; finite ones must lie within a
// tolerance of 2/3 of the window width (bounds are random subranges of the
// window), or 15%% of the endpoint magnitude for half-open windows.
func endpointMatches(got, want float64, window interval.Interval) bool {
	if math.IsInf(want, 0) {
		return math.IsInf(got, 0) && math.Signbit(got) == math.Signbit(want)
	}
	if math.IsInf(got, 0) {
		return false
	}
	tol := 0.67 * window.Width()
	if math.IsInf(tol, 1) {
		tol = 0.15 * math.Abs(want)
	}
	return math.Abs(got-want) <= tol
}

func TestTable1ClustersRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering test")
	}
	res := mineDefault(t, 6000, 42)
	if res.PipelineStats.Coverage() < 0.985 {
		t.Fatalf("coverage = %v", res.PipelineStats.Coverage())
	}
	for _, exp := range expectations() {
		c := findCluster(res, exp)
		if c == nil {
			t.Errorf("%s: no matching cluster found", exp.name)
			continue
		}
		if c.Cardinality < 8 {
			t.Errorf("%s: cardinality = %d", exp.name, c.Cardinality)
		}
		// Cardinality ≈ distinct users (the paper's observation in §6.2).
		if c.UserCount < c.Cardinality/2 {
			t.Errorf("%s: users %d vs cardinality %d", exp.name, c.UserCount, c.Cardinality)
		}
	}
}

func TestCoverageStatisticsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering test")
	}
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 6000, Seed: 42})
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 1500, Seed: 1})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)
	m := NewMiner(Config{Schema: skyserver.Schema(), Stats: stats})
	res := m.MineRecords(toRecords(entries))
	res.AttachCoverage(db)

	for _, exp := range expectations() {
		c := findCluster(res, exp)
		if c == nil {
			t.Errorf("%s: missing", exp.name)
			continue
		}
		if exp.empty {
			// Clusters 18-24: zero area AND object coverage — they live in
			// the empty part of the data space.
			if c.AreaCoverage > 0.01 || c.ObjectCoverage > 0.01 {
				t.Errorf("%s: coverage = %.3f/%.3f, want ~0 (empty area)",
					exp.name, c.AreaCoverage, c.ObjectCoverage)
			}
			continue
		}
		if exp.name == "cluster10" || exp.name == "cluster17" {
			// cluster10 is a catalogue table; cluster17's gwholemask = 0
			// point constraint drives its area coverage below any positive
			// threshold (the paper prints "< 0.001").
			continue
		}
		// In-content clusters cover a small-but-positive fraction.
		if c.AreaCoverage <= 0 || c.AreaCoverage > 0.6 {
			t.Errorf("%s: area coverage = %.3f", exp.name, c.AreaCoverage)
		}
	}

	// The paper's headline: cluster17-style areas occupy well under 1%.
	c17 := findCluster(res, expectations()[16])
	if c17 != nil && c17.AreaCoverage > 0.05 {
		t.Errorf("cluster17 area coverage = %.4f, want tiny", c17.AreaCoverage)
	}
	// Cluster 14: area coverage far exceeds object coverage ("queries do
	// not really follow the data distribution").
	c14 := findCluster(res, expectations()[13])
	if c14 != nil && c14.ObjectCoverage > c14.AreaCoverage {
		t.Errorf("cluster14: object %.4f should be < area %.4f", c14.ObjectCoverage, c14.AreaCoverage)
	}
}

func TestMinerDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("clustering test")
	}
	r1 := mineDefault(t, 2000, 7)
	r2 := mineDefault(t, 2000, 7)
	if len(r1.Clusters) != len(r2.Clusters) || r1.NoiseQueries != r2.NoiseQueries {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d clusters/noise",
			len(r1.Clusters), r1.NoiseQueries, len(r2.Clusters), r2.NoiseQueries)
	}
	for i := range r1.Clusters {
		if r1.Clusters[i].Expr() != r2.Clusters[i].Expr() {
			t.Fatalf("cluster %d differs", i)
		}
	}
}

func TestMineSQLSmall(t *testing.T) {
	stmts := []string{}
	for i := 0; i < 30; i++ {
		stmts = append(stmts, "SELECT * FROM PhotoObjAll WHERE ra <= 210 AND dec <= 10")
	}
	stmts = append(stmts, "SELECT * FROM zooSpec WHERE ra > 300") // noise
	m := NewMiner(Config{Schema: skyserver.Schema()})
	res := m.MineSQL(stmts)
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(res.Clusters))
	}
	if res.Clusters[0].Cardinality != 30 {
		t.Errorf("cardinality = %d", res.Clusters[0].Cardinality)
	}
	if res.NoiseQueries != 1 {
		t.Errorf("noise = %d", res.NoiseQueries)
	}
	if res.DistinctAreas != 2 {
		t.Errorf("distinct = %d (identical queries must dedupe)", res.DistinctAreas)
	}
}

func TestContradictoryAreasExcluded(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema()})
	res := m.MineSQL([]string{
		"SELECT * FROM Photoz WHERE z > 5 AND z < 1",
		"SELECT * FROM Photoz WHERE z > 0",
	})
	if res.ContradictoryAreas != 1 {
		t.Errorf("contradictory = %d", res.ContradictoryAreas)
	}
}

func TestSampleSizeCap(t *testing.T) {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 2000, Seed: 3})
	m := NewMiner(Config{Schema: skyserver.Schema(), SampleSize: 500, Seed: 3})
	res := m.MineRecords(toRecords(entries))
	if res.ClusteredAreas != 500 {
		t.Errorf("clustered = %d, want 500", res.ClusteredAreas)
	}
	if res.DistinctAreas <= 500 {
		t.Errorf("distinct = %d, want > 500", res.DistinctAreas)
	}
}

func TestPaperLiteralModeRuns(t *testing.T) {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 1500, Seed: 5})
	m := NewMiner(Config{Schema: skyserver.Schema(), Mode: distance.ModePaperLiteral, Eps: 0.05, MinPts: 6})
	res := m.MineRecords(toRecords(entries))
	// The literal formula still groups the equality-heavy cluster 1 (point
	// predicates never overlap => pairwise distance 0).
	found := false
	for _, c := range res.Clusters {
		for _, r := range c.Relations {
			if r == "Photoz" && c.Box.Has("Photoz.objid") {
				found = true
			}
		}
	}
	if !found {
		t.Error("paper-literal mode lost the objid cluster")
	}
}

func TestClusterIDsSequentialAndSorted(t *testing.T) {
	res := mineDefault(t, 1500, 11)
	for i, c := range res.Clusters {
		if c.ID != i+1 {
			t.Fatalf("cluster %d has ID %d", i, c.ID)
		}
		if i > 0 && c.Cardinality > res.Clusters[i-1].Cardinality {
			t.Fatalf("not sorted by cardinality at %d", i)
		}
	}
}

func TestEndToEndFromSkyServerCSVFixture(t *testing.T) {
	f, err := os.Open("testdata/sample_sqllog.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := qlog.ReadSkyServerCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 75 {
		t.Fatalf("records = %d", len(recs))
	}
	m := NewMiner(Config{Schema: skyserver.Schema(), MinPts: 5})
	res := m.MineRecords(recs)
	st := res.PipelineStats
	// 2 of 75 statements are rejected (typo + DDL); the dialect one parses.
	if st.Extracted != 73 {
		t.Fatalf("extracted = %d (failures: %v)", st.Extracted, st.ParseFailures)
	}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %d: %v", len(res.Clusters), res.Clusters)
	}
	// Largest: the objid-lookup population (48 queries over 24 constants).
	top := res.Clusters[0]
	if top.Cardinality != 48 || top.Relations[0] != "Photoz" {
		t.Errorf("top = %d %v", top.Cardinality, top.Relations)
	}
	// The empty-area probe cluster must be present with dec below the
	// survey footprint.
	found := false
	for _, c := range res.Clusters {
		if c.Box.Has("PhotoObjAll.dec") && c.Box.Get("PhotoObjAll.dec").Hi < -50 {
			found = true
		}
	}
	if !found {
		t.Error("empty-area cluster missing")
	}
	// The zooSpec probe stays noise.
	if res.NoiseQueries != 2 {
		t.Errorf("noise = %d, want 2 (zooSpec probe + dialect query)", res.NoiseQueries)
	}
}
