// Package dbscan is a generic implementation of the DBSCAN clustering
// algorithm of Ester et al. [10], the noise-aware, k-free algorithm the
// paper uses to aggregate access areas (Section 6). It works over an
// arbitrary pairwise distance function; region queries are linear scans
// parallelised across workers, so clustering n points costs O(n²) distance
// evaluations.
package dbscan

import (
	"math"
	"slices"

	"repro/internal/par"
)

// Noise is the label assigned to points not belonging to any cluster.
const Noise = -1

// Config holds the DBSCAN parameters.
type Config struct {
	// Eps is the neighbourhood radius.
	Eps float64
	// MinPts is the minimum neighbourhood cardinality (including the point
	// itself) for a core point.
	MinPts int
	// Workers bounds the goroutines used for region queries; 0 means
	// GOMAXPROCS.
	Workers int
	// Weights optionally assigns each point a multiplicity: deduplicated
	// access areas carry the number of raw queries they stand for, and a
	// point is a core point when the total weight of its eps-neighbourhood
	// reaches MinPts. Nil means weight 1 everywhere.
	Weights []int
}

// Result is the clustering outcome.
type Result struct {
	// Labels assigns each input index a cluster id in [0, NumClusters) or
	// Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// ClusterIndices returns the member indices of each cluster.
func (r *Result) ClusterIndices() [][]int {
	out := make([][]int, r.NumClusters)
	for i, l := range r.Labels {
		if l >= 0 {
			out[l] = append(out[l], i)
		}
	}
	return out
}

// NoiseCount returns the number of noise points.
func (r *Result) NoiseCount() int {
	n := 0
	for _, l := range r.Labels {
		if l == Noise {
			n++
		}
	}
	return n
}

// Cluster runs DBSCAN over n points with the given distance function.
// dist must be symmetric; it is called concurrently from multiple
// goroutines and must be safe for concurrent use.
func Cluster(n int, dist func(i, j int) float64, cfg Config) *Result {
	e := newEngine(n, dist, cfg)
	return e.run(e.regionQuery)
}

// ClusterGraph runs DBSCAN over n points whose eps-neighbourhoods are
// already known: region(i) must return every point within Eps of i,
// including i itself, in ascending index order — exactly what Cluster's
// scans would find. No distance is evaluated. The incremental miner keeps
// an eps-neighbour graph across epochs and clusters every epoch through
// here; labels equal Cluster's over the same neighbourhoods because both
// run the same label-propagation loop. region is called at most once per
// point, sequentially, and the slice it returns is only read before the
// next call, so region may reuse one buffer.
func ClusterGraph(n int, region func(i int) []int, cfg Config) *Result {
	e := newEngine(n, nil, cfg)
	return e.run(region)
}

const unclassified = -2

// weightOf sums the weights of a neighbourhood (cardinality when no weights
// are configured).
func (e *engine) weightOf(idx []int) int {
	if e.cfg.Weights == nil {
		return len(idx)
	}
	total := 0
	for _, i := range idx {
		total += e.cfg.Weights[i]
	}
	return total
}

// newEngine prepares the labels for one clustering run.
func newEngine(n int, dist func(i, j int) float64, cfg Config) *engine {
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unclassified
	}
	return &engine{n: n, dist: dist, cfg: cfg, labels: labels, workers: par.Workers(cfg.Workers)}
}

// run is the one DBSCAN label-propagation loop every entry point shares:
// region(i) returns i's eps-neighbourhood, including i, in ascending index
// order. Points are visited in index order and each cluster grows from its
// first core point, so two region sources that agree on every
// neighbourhood produce identical labels.
func (e *engine) run(region func(int) []int) *Result {
	clusterID := 0
	for i := 0; i < e.n; i++ {
		if e.labels[i] != unclassified {
			continue
		}
		neighbours := region(i)
		if e.weightOf(neighbours) < e.cfg.MinPts {
			e.labels[i] = Noise
			continue
		}
		e.expand(i, neighbours, clusterID, region)
		clusterID++
	}
	return &Result{Labels: e.labels, NumClusters: clusterID}
}

type engine struct {
	n       int
	dist    func(i, j int) float64
	cfg     Config
	labels  []int
	workers int
}

// regionQuery returns all points within Eps of point i (including i),
// scanning one contiguous chunk per worker in parallel.
func (e *engine) regionQuery(i int) []int {
	sp := regionQueryStage.Start()
	defer sp.End()
	regionQueriesTotal.Inc()
	k := chunks(e.n, e.workers)
	if k == 1 {
		return e.scan(i, 0, e.n)
	}
	parts := make([][]int, k)
	par.For(k, k, func(c int) {
		lo, hi := chunkBounds(e.n, k, c)
		parts[c] = e.scan(i, lo, hi)
	})
	var out []int
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// scan returns the points of [lo, hi) within Eps of point i, i included.
func (e *engine) scan(i, lo, hi int) []int {
	var out []int
	for j := lo; j < hi; j++ {
		if j == i || e.dist(i, j) <= e.cfg.Eps {
			out = append(out, j)
		}
	}
	return out
}

// chunks is how many contiguous chunks a parallel scan over n points splits
// into: one per worker, or one when n is under parallelCutoff.
func chunks(n, workers int) int {
	if n < parallelCutoff {
		return 1
	}
	return workers
}

// chunkBounds returns chunk c of k near-equal contiguous chunks of [0, n).
func chunkBounds(n, k, c int) (lo, hi int) {
	return c * n / k, (c + 1) * n / k
}

// expand grows cluster id from core point i using the classic seed-set
// expansion of Ester et al.: a core point's neighbours join the cluster as
// soon as they are seen, so every point enters the queue at most once and a
// neighbourhood is read in full before the next region query.
func (e *engine) expand(i int, seeds []int, id int, region func(int) []int) {
	e.labels[i] = id
	queue := e.claim(seeds, id, nil)
	for h := 0; h < len(queue); h++ {
		neighbours := region(queue[h])
		if e.weightOf(neighbours) >= e.cfg.MinPts {
			queue = e.claim(neighbours, id, queue)
		}
	}
}

// claim labels a core point's neighbours into cluster id: unclassified
// points join the queue to be expanded in turn, noise points become border
// points, and points already in a cluster keep it.
func (e *engine) claim(neighbours []int, id int, queue []int) []int {
	for _, k := range neighbours {
		switch e.labels[k] {
		case unclassified:
			e.labels[k] = id
			queue = append(queue, k)
		case Noise:
			e.labels[k] = id
		}
	}
	return queue
}

// PivotIndex accelerates region queries via the triangle inequality
// (LAESA): with precomputed distances from every point to a handful of
// pivots, a candidate x can be skipped when |d(q,p) − d(x,p)| > eps + Slack
// for any pivot p, without evaluating d(q,x). With Slack 0 the pruning is
// exact ONLY for a true metric; the endpoint d_pred mode is one, but the
// min-matching d_conj aggregation above it is merely near-metric — the
// min-matching can pair a clause with different partners on the two sides
// of a triple, so |d(q,p) − d(x,p)| can exceed d(q,x). Measured on the 20k
// default-mix workload the overshoot stays under 2·d(q,x) pair for pair,
// which is what a Slack of PivotSlackFactor·eps absorbs.
//
// The table is one candidate-major slice: point i's distances to the K
// pivots sit next to each other, so a scan reads one contiguous run per
// candidate and an appended point appends K values. An index can outlive
// one clustering run: the miners' substrate keeps one per relation-set
// group across epochs, Extends it over appended points, Refreshes the
// entries of points whose distances changed, and scans only changed points
// with AppendRegion to maintain its eps-neighbour graph.
type PivotIndex struct {
	dist   func(i, j int) float64
	pivots []int
	table  []float64 // table[i*len(pivots)+k] = d(pivots[k], i)
	// tableEvals counts the distances the table has cost: the build and
	// every Extend and Refresh. A pivot's distance to itself is taken as 0,
	// not evaluated.
	tableEvals int64

	// Slack widens the pruning threshold to eps + Slack. Zero (the
	// constructor default) gives classic LAESA pruning, exact for metrics.
	Slack float64
}

// NewPivotIndex precomputes k pivot rows over n points. Pivots are chosen
// greedily (farthest-point) starting from index 0, which spreads them well
// for clustering workloads.
func NewPivotIndex(n int, dist func(i, j int) float64, k int) *PivotIndex {
	return NewPivotIndexParallel(n, dist, k, 1)
}

// NewPivotIndexParallel is NewPivotIndex with each pivot's distances spread
// across workers; dist must then be safe for concurrent use.
func NewPivotIndexParallel(n int, dist func(i, j int) float64, k, workers int) *PivotIndex {
	sp := pivotBuildStage.Start()
	defer sp.End()
	pivotBuildsTotal.Inc()
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	nc := chunks(n, par.Workers(workers))
	idx := &PivotIndex{dist: dist, table: make([]float64, n*k)}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = 1e308
	}
	next := 0
	for len(idx.pivots) < k {
		p, col := next, len(idx.pivots)
		idx.pivots = append(idx.pivots, p)
		idx.tableEvals += int64(max(n-1, 0))
		par.For(nc, nc, func(c int) {
			lo, hi := chunkBounds(n, nc, c)
			for i := lo; i < hi; i++ {
				d := 0.0
				if i != p {
					d = dist(p, i)
				}
				idx.table[i*k+col] = d
				if d < minDist[i] {
					minDist[i] = d
				}
			}
		})
		// Farthest point from all chosen pivots becomes the next pivot.
		best, bestD := 0, -1.0
		for i := 0; i < n; i++ {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if bestD == 0 {
			break
		}
		next = best
	}
	if got := len(idx.pivots); got < k {
		// Every point sits on a chosen pivot: drop the unfilled columns.
		table := make([]float64, n*got)
		for i := 0; i < n; i++ {
			copy(table[i*got:(i+1)*got], idx.table[i*k:])
		}
		idx.table = table
	}
	return idx
}

// parallelCutoff is the point count below which region queries and pivot
// rows stay single-threaded (goroutine overhead dominates under it). It
// counts points, not distance cost: a cheap distance (1-D points) scans
// serially faster than fanned out even above it, but the fan-out pays where
// a brute scan is costly — OLAPClus's profile distance at 20k queries
// (benchreport -exp olapclus -scale 20000, GOMAXPROCS 2, 2-vCPU VM) took
// 11.7-17.5 s fanned out against 18.7-20.9 s forced serial.
const parallelCutoff = 2048

// N returns the number of points the index currently covers.
func (ix *PivotIndex) N() int {
	if len(ix.pivots) == 0 {
		return 0
	}
	return len(ix.table) / len(ix.pivots)
}

// Pivots returns the number of pivots.
func (ix *PivotIndex) Pivots() int { return len(ix.pivots) }

// TableEvals returns the distance evaluations the table has cost since the
// index was built: n−1 per pivot at the build, one per pivot per appended
// point in Extend, and those Refresh re-evaluates. Scans report their own.
func (ix *PivotIndex) TableEvals() int64 { return ix.tableEvals }

// Extend grows the index to cover points [N(), n): each point appends its
// K pivot distances, so an epoch that appends m points to an
// already-indexed set costs m·K evaluations instead of a full rebuild.
// The pivot SET stays fixed — pruning correctness never depends on pivot
// choice, only its effectiveness does, so callers should rebuild once the
// set has grown far past the size the pivots were chosen for (the
// incremental miner's substrate rebuilds at 2×).
//
// dist replaces the stored distance function for subsequent region queries;
// it must agree with the original on the already-covered prefix, except at
// points passed to Refresh (the substrate's group-local closures do: group
// membership is append-only, so local indices are stable).
func (ix *PivotIndex) Extend(n int, dist func(i, j int) float64) {
	ix.dist = dist
	old := ix.N()
	if n <= old {
		return
	}
	pivotExtendsTotal.Inc()
	ix.table = slices.Grow(ix.table, (n-old)*len(ix.pivots))
	for i := old; i < n; i++ {
		for _, p := range ix.pivots {
			ix.table = append(ix.table, dist(p, i))
		}
	}
	ix.tableEvals += int64((n - old) * len(ix.pivots))
}

// Refresh re-evaluates, in place, the table entries of points whose
// distances changed — the incremental miner recompiles an area when
// access(a) moves under it and keeps its index: every pivot's entry is
// recomputed at those points, and every entry of a pivot that is itself
// among them. The pivot set stays fixed (pruning correctness never depends
// on it); dist replaces the stored distance function as in Extend.
func (ix *PivotIndex) Refresh(points []int, dist func(i, j int) float64) {
	ix.dist = dist
	if len(points) == 0 {
		return
	}
	k, n := len(ix.pivots), ix.N()
	for col, p := range ix.pivots {
		if slices.Contains(points, p) {
			for i := 0; i < n; i++ {
				if i != p {
					ix.table[i*k+col] = dist(p, i)
				}
			}
			ix.tableEvals += int64(n - 1)
			continue
		}
		for _, i := range points {
			ix.table[i*k+col] = dist(p, i)
		}
		ix.tableEvals += int64(len(points))
	}
}

// Region returns all points within eps of q (including q), in ascending
// order, using pivot pruning to avoid most distance evaluations.
func (ix *PivotIndex) Region(q int, eps float64) []int {
	local, _ := ix.AppendRegion(nil, q, eps, nil)
	out := make([]int, len(local))
	for i, j := range local {
		out[i] = int(j)
	}
	return out
}

// AppendRegion appends to out, in ascending order, every point within eps
// of q (q itself included) and returns the extended slice together with
// the number of distances it evaluated. A candidate j below q is skipped
// when skip[j] is set (nil skips none): the incremental miner's neighbour
// graph marks its changed points, each of which scans the others above it,
// so every pair costs one evaluation. Candidates the pivots rule out cost
// none.
func (ix *PivotIndex) AppendRegion(out []int32, q int, eps float64, skip []bool) ([]int32, int) {
	sp := pivotRegionStage.Start()
	defer sp.End()
	pivotRegionsTotal.Inc()
	k := len(ix.pivots)
	bound := eps + ix.Slack
	qrow := ix.table[q*k : q*k+k]
	evals := 0
candidates:
	for j, n := 0, ix.N(); j < n; j++ {
		if j == q {
			out = append(out, int32(q))
			continue
		}
		if j < q && skip != nil && skip[j] {
			continue
		}
		row := ix.table[j*k : j*k+k]
		for c, dq := range qrow {
			if math.Abs(dq-row[c]) > bound {
				continue candidates
			}
		}
		evals++
		if ix.dist(q, j) <= eps {
			out = append(out, int32(j))
		}
	}
	return out, evals
}

// PivotSlackFactor is the near-metric safety margin, in units of eps, that
// the miners' substrate sets as every index's Slack: a candidate is skipped
// only when the pivot gap exceeds (1+PivotSlackFactor)·eps. The endpoint-mode distance violates the
// triangle inequality by at most ~2× the pair distance on the measured
// workloads (the min-matching clause assignment can flip between the two
// sides of a triple), so a 2·eps margin keeps the pruning lossless for
// eps-close pairs while still discarding ~79% of the far candidates, whose
// pivot gaps are dominated by cross-column structure and sit near 1.
const PivotSlackFactor = 2.0
