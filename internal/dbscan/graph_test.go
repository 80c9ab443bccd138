package dbscan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// neighbourLists computes every point's eps-neighbourhood (including the
// point) in ascending order by brute force.
func neighbourLists(n int, dist func(i, j int) float64, eps float64) [][]int {
	lists := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i || dist(i, j) <= eps {
				lists[i] = append(lists[i], j)
			}
		}
	}
	return lists
}

// ClusterGraph over precomputed neighbourhoods must label exactly like the
// scanning Cluster: same cluster ids, same noise, and — the delicate part —
// the same cluster for every border point reachable from two clusters,
// which depends on visiting order, not just on the neighbourhoods.
func TestClusterGraphMatchesCluster(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	borders := 0
	for trial := 0; trial < 60; trial++ {
		n := 20 + r.Intn(250)
		xs, ys := make([]float64, n), make([]float64, n)
		centres := 1 + r.Intn(5)
		for i := range xs {
			c := r.Intn(centres)
			xs[i] = float64(c)*3 + r.NormFloat64()*(0.3+r.Float64())
			ys[i] = r.NormFloat64() * (0.3 + r.Float64())
		}
		dist := func(i, j int) float64 { return math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) }
		var weights []int
		if trial%2 == 1 {
			weights = make([]int, n)
			for i := range weights {
				weights[i] = 1 + r.Intn(4)
			}
		}
		cfg := Config{Eps: 0.2 + r.Float64()*0.6, MinPts: 2 + r.Intn(10), Weights: weights, Workers: 1}

		want := Cluster(n, dist, cfg)
		lists := neighbourLists(n, dist, cfg.Eps)
		calls := make([]int, n)
		got := ClusterGraph(n, func(i int) []int { calls[i]++; return lists[i] }, cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d eps=%.3f minpts=%d weighted=%v): labels differ\ngraph:   %v\ncluster: %v",
				trial, n, cfg.Eps, cfg.MinPts, weights != nil, got.Labels, want.Labels)
		}
		for i, c := range calls {
			if c > 1 {
				t.Fatalf("trial %d: region(%d) called %d times", trial, i, c)
			}
		}
		borders += countContestedBorders(lists, want, cfg)
	}
	if borders == 0 {
		t.Fatal("no trial produced a border point adjacent to two clusters; the test does not exercise order")
	}
}

// countContestedBorders counts non-core clustered points with core
// neighbours in two different clusters.
func countContestedBorders(lists [][]int, res *Result, cfg Config) int {
	weight := func(l []int) int {
		if cfg.Weights == nil {
			return len(l)
		}
		w := 0
		for _, i := range l {
			w += cfg.Weights[i]
		}
		return w
	}
	n := 0
	for i, l := range lists {
		if res.Labels[i] == Noise || weight(l) >= cfg.MinPts {
			continue
		}
		seen := map[int]bool{}
		for _, j := range l {
			if j != i && weight(lists[j]) >= cfg.MinPts {
				seen[res.Labels[j]] = true
			}
		}
		if len(seen) > 1 {
			n++
		}
	}
	return n
}

func TestClusterGraphEmpty(t *testing.T) {
	res := ClusterGraph(0, func(int) []int { return nil }, Config{Eps: 1, MinPts: 2})
	if len(res.Labels) != 0 || res.NumClusters != 0 {
		t.Fatalf("empty input: %+v", res)
	}
}

// Refresh after a point moves must leave the index pruning exactly as a
// fresh build over the moved points would, and AppendRegion must honour its
// skip mask below q, append after the caller's prefix and count one
// evaluation per candidate the pivots could not rule out.
func TestPivotIndexRefreshAndFilter(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 300
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = r.Float64() * 50
	}
	dist := euclid1D(pts)
	ix := NewPivotIndex(n, dist, 6)
	// Move some points, including pivot 0 (the first pivot is always 0).
	moved := []int{0, 5, 17, 200}
	for _, i := range moved {
		pts[i] = r.Float64() * 50
	}
	ix.Refresh(moved, dist)
	const eps = 0.7
	lists := neighbourLists(n, dist, eps)
	even := make([]bool, n)
	for j := range even {
		even[j] = j%2 == 0
	}
	prefix := []int32{-7}
	for q := 0; q < n; q++ {
		want := lists[q]
		if got := ix.Region(q, eps); !reflect.DeepEqual(got, want) {
			t.Fatalf("after Refresh, Region(%d) = %v, want %v", q, got, want)
		}
		wantSkip := []int32{-7}
		for _, j := range want {
			if j >= q || !even[j] {
				wantSkip = append(wantSkip, int32(j))
			}
		}
		// Extending to the size already covered only swaps in the
		// counting distance.
		calls := 0
		counted := func(i, j int) float64 { calls++; return dist(i, j) }
		ix.Extend(n, counted)
		got, evals := ix.AppendRegion(append([]int32(nil), prefix...), q, eps, even)
		if !reflect.DeepEqual(got, wantSkip) {
			t.Fatalf("AppendRegion(%d) = %v, want %v", q, got, wantSkip)
		}
		if evals != calls || evals > n-1 {
			t.Fatalf("AppendRegion(%d) reported %d evaluations, made %d", q, evals, calls)
		}
	}
}
