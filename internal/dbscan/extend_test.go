package dbscan

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// Extending an index over an appended point set must answer region queries
// identically to an index built from scratch over the full set.
func TestPivotIndexExtendMatchesRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := make([]float64, 300)
	for i := range pts {
		pts[i] = r.Float64() * 10
	}
	dist := euclid1D(pts)

	ix := NewPivotIndex(200, dist, 4)
	ix.Extend(300, dist)
	if ix.N() != 300 {
		t.Fatalf("extended N = %d, want 300", ix.N())
	}

	fresh := NewPivotIndex(300, dist, 4)
	const eps = 0.15
	for q := 0; q < 300; q += 7 {
		a := ix.Region(q, eps)
		b := fresh.Region(q, eps)
		// Pivot sets differ (farthest-point from different prefixes), but
		// both prunings are exact for a metric, so the results must agree.
		if len(a) != len(b) {
			t.Fatalf("q=%d: extended %v vs fresh %v", q, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("q=%d: extended %v vs fresh %v", q, a, b)
			}
		}
	}
}

// Extend must only evaluate distances involving the new points.
func TestPivotIndexExtendEvaluatesNewPointsOnly(t *testing.T) {
	pts := make([]float64, 120)
	for i := range pts {
		pts[i] = float64(i)
	}
	base := euclid1D(pts)
	calls := 0
	counted := func(i, j int) float64 {
		calls++
		return base(i, j)
	}
	ix := NewPivotIndex(100, counted, 3)
	buildCalls := calls

	calls = 0
	ix.Extend(120, counted)
	if want := 3 * 20; calls != want || ix.TableEvals() != int64(buildCalls+want) {
		t.Errorf("Extend evaluated %d distances (table total %d), want %d (pivots × new points)",
			calls, ix.TableEvals(), want)
	}
	if buildCalls == 0 {
		t.Error("index build evaluated nothing")
	}
	// Extending to a size already covered is a no-op.
	calls = 0
	ix.Extend(120, counted)
	if calls != 0 {
		t.Errorf("no-op Extend evaluated %d distances", calls)
	}
}

// DBSCAN over an extended index (with the PivotSlackFactor margin, as the
// substrate runs it) must label identically to brute-force DBSCAN.
func TestClusterWithExtendedIndexMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var pts []float64
	for c := 0; c < 3; c++ {
		center := float64(c * 5)
		for i := 0; i < 60; i++ {
			pts = append(pts, center+r.NormFloat64()*0.2)
		}
	}
	for i := 0; i < 15; i++ {
		pts = append(pts, r.Float64()*15)
	}
	dist := euclid1D(pts)
	n := len(pts)
	cfg := Config{Eps: 0.3, MinPts: 5}

	brute := Cluster(n, dist, cfg)

	// Build over the first two-thirds, extend over the rest — the epoch shape.
	ix := NewPivotIndex(2*n/3, dist, 4)
	ix.Extend(n, dist)
	ix.Slack = PivotSlackFactor * cfg.Eps
	inc := ClusterGraph(n, func(i int) []int { return ix.Region(i, cfg.Eps) }, cfg)

	if brute.NumClusters != inc.NumClusters {
		t.Fatalf("clusters: brute %d vs extended-index %d", brute.NumClusters, inc.NumClusters)
	}
	for i := range brute.Labels {
		if brute.Labels[i] != inc.Labels[i] {
			t.Fatalf("label %d: brute %d vs extended-index %d", i, brute.Labels[i], inc.Labels[i])
		}
	}
}

// Every entry of the candidate-major table must hold d(pivot_k, i) bit for
// bit after a parallel build, an Extend and a Refresh that moves pivot 0
// (its whole column is re-evaluated), and TableEvals must count exactly the
// distances those steps evaluated.
func TestPivotTableEntriesExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		r := rand.New(rand.NewSource(21))
		const built, n = 2600, 3000
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = r.Float64()*40, r.Float64()*40
		}
		dist := func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) }
		var calls atomic.Int64
		counted := func(i, j int) float64 { calls.Add(1); return dist(i, j) }

		ix := NewPivotIndexParallel(built, counted, 6, workers)
		ix.Extend(n, counted)
		moved := []int{0, 9, 1234, 2799}
		for _, i := range moved {
			xs[i], ys[i] = r.Float64()*40, r.Float64()*40
		}
		ix.Refresh(moved, counted)

		if ix.N() != n || ix.Pivots() != 6 || len(ix.table) != n*6 {
			t.Fatalf("workers %d: N %d, %d pivots, table of %d", workers, ix.N(), ix.Pivots(), len(ix.table))
		}
		if ix.pivots[0] != 0 {
			t.Fatalf("workers %d: first pivot %d, want 0", workers, ix.pivots[0])
		}
		for i := 0; i < n; i++ {
			for k, p := range ix.pivots {
				if got, want := ix.table[i*6+k], dist(p, i); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("workers %d: entry (point %d, pivot %d) = %v, want %v", workers, i, p, got, want)
				}
			}
		}
		if got := calls.Load(); ix.TableEvals() != got {
			t.Fatalf("workers %d: TableEvals %d, distances evaluated %d", workers, ix.TableEvals(), got)
		}
	}
}
