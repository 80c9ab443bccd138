package dbscan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// euclid1D builds a distance function over 1-D points.
func euclid1D(pts []float64) func(i, j int) float64 {
	return func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) }
}

func TestTwoBlobsAndNoise(t *testing.T) {
	// Blob A around 0, blob B around 100, one outlier at 50.
	var pts []float64
	for i := 0; i < 20; i++ {
		pts = append(pts, float64(i)*0.1)     // 0.0 .. 1.9
		pts = append(pts, 100+float64(i)*0.1) // 100 .. 101.9
	}
	pts = append(pts, 50)
	res := Cluster(len(pts), euclid1D(pts), Config{Eps: 0.5, MinPts: 4})
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", res.NumClusters)
	}
	if res.Labels[len(pts)-1] != Noise {
		t.Errorf("outlier label = %d, want noise", res.Labels[len(pts)-1])
	}
	if res.NoiseCount() != 1 {
		t.Errorf("noise = %d, want 1", res.NoiseCount())
	}
	// All of blob A in one cluster.
	la := res.Labels[0]
	for i := 0; i < len(pts)-1; i += 2 {
		if res.Labels[i] != la {
			t.Fatalf("blob A split: label[%d] = %d", i, res.Labels[i])
		}
	}
}

func TestDensityChaining(t *testing.T) {
	// Points spaced 1 apart chain into a single cluster with eps = 1.5 even
	// though endpoints are far apart — the Cluster-1 mechanism.
	pts := make([]float64, 50)
	for i := range pts {
		pts[i] = float64(i)
	}
	res := Cluster(len(pts), euclid1D(pts), Config{Eps: 1.5, MinPts: 3})
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters)
	}
	if res.NoiseCount() != 0 {
		t.Errorf("noise = %d", res.NoiseCount())
	}
}

func TestAllNoise(t *testing.T) {
	pts := []float64{0, 10, 20, 30}
	res := Cluster(len(pts), euclid1D(pts), Config{Eps: 1, MinPts: 2})
	if res.NumClusters != 0 || res.NoiseCount() != 4 {
		t.Errorf("res = %+v", res)
	}
}

func TestSinglePointMinPtsOne(t *testing.T) {
	res := Cluster(1, func(i, j int) float64 { return 0 }, Config{Eps: 1, MinPts: 1})
	if res.NumClusters != 1 || res.Labels[0] != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestEmptyInput(t *testing.T) {
	res := Cluster(0, nil, Config{Eps: 1, MinPts: 1})
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestBorderPointAdopted(t *testing.T) {
	// Core points at 0, 0.1, 0.2 (MinPts 3, eps 0.30001); border point at
	// 0.5 is within eps of the core at 0.2 but has only 2 neighbours.
	pts := []float64{0, 0.1, 0.2, 0.5}
	res := Cluster(len(pts), euclid1D(pts), Config{Eps: 0.30001, MinPts: 3})
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters)
	}
	if res.Labels[3] != 0 {
		t.Errorf("border label = %d, want 0", res.Labels[3])
	}
}

func TestClusterIndices(t *testing.T) {
	pts := []float64{0, 0.1, 0.2, 100, 100.1, 100.2}
	res := Cluster(len(pts), euclid1D(pts), Config{Eps: 0.5, MinPts: 2})
	idx := res.ClusterIndices()
	if len(idx) != 2 || len(idx[0]) != 3 || len(idx[1]) != 3 {
		t.Errorf("indices = %v", idx)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := make([]float64, 5000)
	for i := range pts {
		pts[i] = r.Float64() * 100
	}
	serial := Cluster(len(pts), euclid1D(pts), Config{Eps: 0.3, MinPts: 4, Workers: 1})
	parallel := Cluster(len(pts), euclid1D(pts), Config{Eps: 0.3, MinPts: 4, Workers: 8})
	if serial.NumClusters != parallel.NumClusters {
		t.Fatalf("cluster counts differ: %d vs %d", serial.NumClusters, parallel.NumClusters)
	}
	for i := range serial.Labels {
		if (serial.Labels[i] == Noise) != (parallel.Labels[i] == Noise) {
			t.Fatalf("noise status differs at %d", i)
		}
	}
}

// Property: every labelled point is within eps of some other member of its
// cluster (connectivity at the sample level), and cluster ids are compact.
func TestPropClusterConnectivityAndCompactness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(120)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = r.Float64() * 20
		}
		eps := 0.2 + r.Float64()
		minPts := 2 + r.Intn(4)
		res := Cluster(n, euclid1D(pts), Config{Eps: eps, MinPts: minPts})
		seenID := make(map[int]bool)
		for i, l := range res.Labels {
			if l == unclassified {
				t.Logf("point %d left unclassified", i)
				return false
			}
			if l >= res.NumClusters {
				return false
			}
			if l < 0 {
				continue
			}
			seenID[l] = true
			// Connectivity: some same-cluster point within eps.
			if clusterSize(res, l) > 1 {
				ok := false
				for j, lj := range res.Labels {
					if j != i && lj == l && math.Abs(pts[i]-pts[j]) <= eps {
						ok = true
						break
					}
				}
				if !ok {
					t.Logf("point %d disconnected from cluster %d", i, l)
					return false
				}
			}
		}
		return len(seenID) == res.NumClusters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func clusterSize(r *Result, id int) int {
	n := 0
	for _, l := range r.Labels {
		if l == id {
			n++
		}
	}
	return n
}

// Property: clusters have at least MinPts members... not guaranteed for
// border-sharing, but every cluster contains at least one core point whose
// eps-neighbourhood has >= MinPts members.
func TestPropEveryClusterHasCore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(100)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = r.Float64() * 10
		}
		eps, minPts := 0.5, 3
		res := Cluster(n, euclid1D(pts), Config{Eps: eps, MinPts: minPts})
		for id := 0; id < res.NumClusters; id++ {
			hasCore := false
			for i, l := range res.Labels {
				if l != id {
					continue
				}
				count := 0
				for j := range pts {
					if j == i || math.Abs(pts[i]-pts[j]) <= eps {
						count++
					}
				}
				if count >= minPts {
					hasCore = true
					break
				}
			}
			if !hasCore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestWeightedCorePoints(t *testing.T) {
	// Two points 0.1 apart, one carrying weight 10: with MinPts 5 the pair
	// is a cluster only because of the weight.
	pts := []float64{0, 0.1, 50}
	res := Cluster(len(pts), euclid1D(pts), Config{Eps: 0.5, MinPts: 5, Weights: []int{10, 1, 1}})
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1", res.NumClusters)
	}
	if res.Labels[0] != 0 || res.Labels[1] != 0 {
		t.Errorf("labels = %v", res.Labels)
	}
	if res.Labels[2] != Noise {
		t.Errorf("far point label = %d", res.Labels[2])
	}
	// Without weights the same points are all noise.
	res = Cluster(len(pts), euclid1D(pts), Config{Eps: 0.5, MinPts: 5})
	if res.NumClusters != 0 {
		t.Errorf("unweighted clusters = %d", res.NumClusters)
	}
}

// pivotCluster runs DBSCAN the way the miners' substrate does: every
// neighbourhood comes from a LAESA index (built on workers goroutines) whose
// Slack is the PivotSlackFactor margin, fed to ClusterGraph.
func pivotCluster(n int, dist func(i, j int) float64, cfg Config, pivots, workers int) *Result {
	ix := NewPivotIndexParallel(n, dist, pivots, workers)
	ix.Slack = PivotSlackFactor * cfg.Eps
	return ClusterGraph(n, func(i int) []int { return ix.Region(i, cfg.Eps) }, cfg)
}

// TestClusterWithPivotsNearMetricSlack pins the slack margin down with a
// hand-built quasi-metric: d(1,2) ≤ eps while |d(0,1) − d(0,2)| = 2·eps,
// a triangle-inequality violation of the kind the min-matching d_conj
// produces. Slackless LAESA pruning drops the true neighbour and shatters
// the cluster; the PivotSlackFactor margin must keep it.
func TestClusterWithPivotsNearMetricSlack(t *testing.T) {
	mat := [][]float64{
		{0, 5.0, 7.0, 5.5},
		{5.0, 0, 0.5, 0.5},
		{7.0, 0.5, 0, 0.5},
		{5.5, 0.5, 0.5, 0},
	}
	dist := func(i, j int) float64 { return mat[i][j] }
	cfg := Config{Eps: 1.0, MinPts: 3}

	// The slackless index really does misprune: point 2 is within eps of 1
	// but the pivot-0 gap |5.0 − 7.0| exceeds eps.
	ix := NewPivotIndex(len(mat), dist, 2)
	for _, j := range ix.Region(1, cfg.Eps) {
		if j == 2 {
			t.Fatal("fixture no longer triggers a false prune; rebuild it")
		}
	}

	brute := Cluster(len(mat), dist, cfg)
	pivoted := pivotCluster(len(mat), dist, cfg, 2, 1)
	if brute.NumClusters != 1 {
		t.Fatalf("fixture should form one cluster brute-force, got %d", brute.NumClusters)
	}
	for i := range brute.Labels {
		if brute.Labels[i] != pivoted.Labels[i] {
			t.Fatalf("label %d: brute %d vs pivoted %d (slack margin lost a near-metric neighbour)", i, brute.Labels[i], pivoted.Labels[i])
		}
	}
}

func TestPivotsMatchExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := make([]float64, 3000)
	for i := range pts {
		pts[i] = r.Float64() * 50
	}
	cfg := Config{Eps: 0.2, MinPts: 4}
	plain := Cluster(len(pts), euclid1D(pts), cfg)
	pivoted := pivotCluster(len(pts), euclid1D(pts), cfg, 6, 1)
	if plain.NumClusters != pivoted.NumClusters {
		t.Fatalf("cluster counts: %d vs %d", plain.NumClusters, pivoted.NumClusters)
	}
	for i := range plain.Labels {
		if (plain.Labels[i] == Noise) != (pivoted.Labels[i] == Noise) {
			t.Fatalf("noise status differs at %d", i)
		}
	}
}

func TestPivotRegionEqualsScan(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts := make([]float64, 500)
	for i := range pts {
		pts[i] = r.Float64() * 10
	}
	ix := NewPivotIndex(len(pts), euclid1D(pts), 4)
	for q := 0; q < 50; q++ {
		got := ix.Region(q, 0.3)
		var want []int
		for j := range pts {
			if j == q || math.Abs(pts[q]-pts[j]) <= 0.3 {
				want = append(want, j)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("q=%d: region %d vs %d", q, len(got), len(want))
		}
	}
}

func TestPivotWorkersMatchSerial(t *testing.T) {
	// An index built on several workers must label identically to a
	// single-worker one: the pivot rows, and so every pruned region, are
	// the same.
	r := rand.New(rand.NewSource(13))
	pts := make([]float64, 4000)
	for i := range pts {
		pts[i] = r.Float64() * 60
	}
	cfg := Config{Eps: 0.2, MinPts: 4}
	serial := pivotCluster(len(pts), euclid1D(pts), cfg, 6, 1)
	parallel := pivotCluster(len(pts), euclid1D(pts), cfg, 6, 8)
	if serial.NumClusters != parallel.NumClusters {
		t.Fatalf("cluster counts: %d vs %d", serial.NumClusters, parallel.NumClusters)
	}
	for i := range serial.Labels {
		if serial.Labels[i] != parallel.Labels[i] {
			t.Fatalf("label %d: %d vs %d", i, serial.Labels[i], parallel.Labels[i])
		}
	}
}

// An index whose pivot rows were filled on 8 workers must answer every
// region exactly like a serially built one, in ascending order.
func TestPivotRegionParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pts := make([]float64, 3000)
	for i := range pts {
		pts[i] = r.Float64() * 30
	}
	serialIx := NewPivotIndex(len(pts), euclid1D(pts), 5)
	parallelIx := NewPivotIndexParallel(len(pts), euclid1D(pts), 5, 8)
	for q := 0; q < 40; q++ {
		want := serialIx.Region(q, 0.25)
		got := parallelIx.Region(q, 0.25)
		if len(got) != len(want) {
			t.Fatalf("q=%d: region sizes %d vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q=%d: region[%d] = %d vs %d (order must be ascending)", q, i, got[i], want[i])
			}
		}
	}
}

func TestPivotsEmptyInput(t *testing.T) {
	res := pivotCluster(0, nil, Config{Eps: 1, MinPts: 1}, 4, 1)
	if res.NumClusters != 0 {
		t.Errorf("res = %+v", res)
	}
}

// TestParallelRegionQueryMatchesSerial: many region scans split across
// workers must match the serial scan point for point, in order.
func TestParallelRegionQueryMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	n := parallelCutoff + 500
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = r.Float64() * 40
	}
	d := euclid1D(pts)

	cfg := Config{Eps: 0.3, MinPts: 4}
	e := &engine{n: n, dist: d, cfg: cfg, workers: 8}
	es := &engine{n: n, dist: d, cfg: cfg, workers: 1}
	for q := 0; q < 50; q++ {
		want := es.regionQuery(q)
		got := e.regionQuery(q)
		if len(got) != len(want) {
			t.Fatalf("q=%d: parallel region size %d, serial %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("q=%d: parallel region[%d] = %d, serial %d", q, i, got[i], want[i])
			}
		}
	}
}
