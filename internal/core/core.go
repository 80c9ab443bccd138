// Package core orchestrates the paper's full pipeline: query log → parse →
// access-area extraction (Section 4) → deduplication → DBSCAN clustering
// under the overlap distance (Sections 5-6) → aggregated access areas with
// the Table-1 statistics.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"repro/internal/aggregate"
	"repro/internal/dbscan"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/schema"
)

// Config parameterises a Miner.
type Config struct {
	// Schema is the database schema (canonical names, column domains).
	Schema *schema.Schema
	// Stats is the access(a) registry; when nil a fresh one is created and
	// populated from the log itself (Section 5.3's update rule).
	Stats *schema.Stats
	// Eps and MinPts are the DBSCAN parameters (defaults 0.06 and 8).
	// MinPts counts raw queries: deduplicated areas weigh as many points as
	// the queries they stand for.
	Eps    float64
	MinPts int
	// AutoEps derives Eps from the k-distance curve (k = MinPts) over a
	// sample of the deduplicated areas — the eps-selection heuristic of the
	// DBSCAN paper — overriding Eps.
	AutoEps bool
	// Mode selects the d_pred variant (see internal/distance).
	Mode distance.Mode
	// Algorithm selects the clustering backend: DBSCAN (default) or an
	// OPTICS run with DBSCAN-style extraction at Eps — the Section 7
	// future-work item of trying different clustering techniques. The two
	// agree on cluster structure; OPTICS additionally yields a
	// reachability ordering and is single-threaded here.
	Algorithm Algorithm
	// SampleSize caps the number of distinct access areas clustered; the
	// paper similarly clustered a 5.6M-query sample of the 12.4M log
	// because of DBSCAN's cost. 0 means no cap.
	SampleSize int
	// Seed drives sampling.
	Seed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// SigmaRule is the k of aggregation's k-standard-deviation outlier rule
	// (Section 6.2); zero means 3.
	SigmaRule float64
}

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 0.06
	}
	if c.MinPts == 0 {
		c.MinPts = 8
	}
	return c
}

// Algorithm enumerates clustering backends.
type Algorithm int

const (
	// AlgDBSCAN is the paper's choice (Section 6).
	AlgDBSCAN Algorithm = iota
	// AlgOPTICS runs OPTICS and extracts the eps-cut clustering.
	AlgOPTICS
)

// ParseAlgorithm maps a command's -alg flag value, "dbscan" or "optics", to
// its Algorithm; any other value is an error.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "dbscan":
		return AlgDBSCAN, nil
	case "optics":
		return AlgOPTICS, nil
	}
	return 0, fmt.Errorf("unknown -alg %q (want dbscan or optics)", s)
}

// Result is the outcome of a mining run.
type Result struct {
	// PipelineStats carries the extraction coverage and stage timings.
	PipelineStats *qlog.Stats
	// Clusters are the aggregated access areas, sorted by cardinality
	// descending (like Table 1).
	Clusters []*aggregate.Summary
	// DistinctAreas is the number of distinct access areas after
	// deduplication; ClusteredAreas the number fed to DBSCAN after
	// sampling.
	DistinctAreas  int
	ClusteredAreas int
	// NoiseQueries is the weighted number of queries left unclustered.
	NoiseQueries int
	// ContradictoryAreas counts provably-empty areas (excluded from
	// clustering).
	ContradictoryAreas int
	// ChosenEps records the eps actually used (relevant with AutoEps).
	ChosenEps float64
	// DistanceEvals counts the kernel evaluations of the substrate the run
	// clustered through (auto-eps sample, pivot rows and neighbour scans
	// combined); DistanceCacheHits counts the neighbour-graph entries it
	// reused instead of evaluating — 0 for a batch mine, whose substrate is
	// fresh; an epoch reports both as the substrate's lifetime totals.
	DistanceEvals     int64
	DistanceCacheHits int64
}

// Miner runs the pipeline.
type Miner struct {
	cfg   Config
	stats *schema.Stats
}

// NewMiner builds a Miner; cfg.Schema should normally be set.
func NewMiner(cfg Config) *Miner {
	cfg = cfg.withDefaults()
	st := cfg.Stats
	if st == nil {
		st = schema.NewStats()
	}
	return &Miner{cfg: cfg, stats: st}
}

// Stats exposes the access(a) registry (for inspection and reuse).
func (m *Miner) Stats() *schema.Stats { return m.stats }

// MineSQL is a convenience wrapper over MineRecords for plain statements.
func (m *Miner) MineSQL(stmts []string) *Result {
	recs := make([]qlog.Record, len(stmts))
	for i, s := range stmts {
		recs[i] = qlog.Record{Seq: i, User: "anon", SQL: s}
	}
	return m.MineRecords(recs)
}

// MineRecords runs the full pipeline over a query log.
func (m *Miner) MineRecords(recs []qlog.Record) *Result {
	areaRecs, stats := m.pipeline().Run(recs)
	return m.mine(areaRecs, stats)
}

// MineStream runs the full pipeline over a record stream. Extraction holds
// at most one chunk of raw records at a time (see qlog.Pipeline.RunStream),
// so the log need not fit in memory; the extracted area records are
// collected and then deduplicated and clustered as in MineRecords.
// Cancelling ctx stops the pulls from src; the records pulled before
// cancellation are still extracted, deduplicated and clustered.
func (m *Miner) MineStream(ctx context.Context, src qlog.RecordSource) *Result {
	var areaRecs []qlog.AreaRecord
	stats := m.pipeline().RunStream(ctx, src, func(ar qlog.AreaRecord) {
		areaRecs = append(areaRecs, ar)
	})
	return m.mine(areaRecs, stats)
}

// pipeline builds the extraction pipeline with the template cache on.
func (m *Miner) pipeline() *qlog.Pipeline {
	extractor := &extract.Extractor{Schema: m.cfg.Schema, Stats: m.stats}
	return &qlog.Pipeline{
		Extractor: extractor,
		Workers:   m.cfg.Workers,
	}
}

// MineAreas clusters already-extracted access areas (used by baselines and
// ablations to share one extraction pass).
func (m *Miner) MineAreas(areaRecs []qlog.AreaRecord) *Result {
	return m.mine(areaRecs, nil)
}

// itemAccum deduplicates access areas into weighted items — the state the
// one-shot mine() builds per run and the epoch-based Incremental keeps
// alive across Add calls. Items are appended in first-occurrence order,
// which both paths rely on for deterministic clustering.
type itemAccum struct {
	// mu is only taken by the Incremental path, where Adds may race; the
	// one-shot mine() owns its accumulator exclusively.
	mu            sync.Mutex
	byKey         map[string]int
	items         []*aggregate.Item
	contradictory int
}

func newItemAccum() *itemAccum {
	return &itemAccum{byKey: make(map[string]int)}
}

// add folds one extraction into the accumulator. For non-empty areas it
// returns the item's index and whether this record created it; empty
// (contradictory) areas are counted and reported with idx -1.
func (a *itemAccum) add(ar *qlog.AreaRecord) (idx int, isNew bool) {
	if ar.Area.IsEmpty() {
		a.contradictory++
		return -1, false
	}
	key := ar.Key
	idx, ok := a.byKey[key]
	if !ok {
		idx = len(a.items)
		a.byKey[key] = idx
		a.items = append(a.items, &aggregate.Item{
			Area:   ar.Area,
			Users:  make(map[string]struct{}),
			RelKey: extract.RelationSetKey(ar.Area.Relations),
			Key:    key,
		})
		isNew = true
	}
	it := a.items[idx]
	it.Weight++
	if ar.Record.User != "" {
		it.Users[ar.Record.User] = struct{}{}
	}
	return idx, isNew
}

func (m *Miner) mine(areaRecs []qlog.AreaRecord, stats *qlog.Stats) *Result {
	res := &Result{PipelineStats: stats}
	acc := newItemAccum()
	for i := range areaRecs {
		acc.add(&areaRecs[i])
	}
	res.ContradictoryAreas = acc.contradictory
	res.DistinctAreas = len(acc.items)
	m.mineItems(acc.items, res)
	return res
}

// sampling reports whether SampleSize caps a run over n distinct areas.
func (m *Miner) sampling(n int) bool {
	return m.cfg.SampleSize > 0 && n > m.cfg.SampleSize
}

// mineItems clusters items through a fresh substrate, whose slots are then
// the items' indices. When SampleSize caps the run it first shuffles items
// in place and keeps the first SampleSize (the paper clustered a sample for
// the same reason).
func (m *Miner) mineItems(items []*aggregate.Item, res *Result) {
	if m.sampling(len(items)) {
		r := rand.New(rand.NewSource(m.cfg.Seed))
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		items = items[:m.cfg.SampleSize]
	}
	sub := m.Substrate()
	m.cluster(sub, items, sub.sync(items), res)
	finalizeClusters(res)
}

// cluster is the one clustering engine behind every batch mine and every
// epoch: eps selection, relation-set partitioning, then per partition
// DBSCAN from the substrate's eps-neighbour graph (dbscan.ClusterGraph) or
// OPTICS through Substrate.dist, folded into res. slots[i] is items[i]'s
// substrate slot, already synced; each item is handed its slot's hull list
// for Summarize. Clusters are left unordered for finalizeClusters;
// DistanceEvals and DistanceCacheHits report the substrate's lifetime
// counters.
func (m *Miner) cluster(sub *Substrate, items []*aggregate.Item, slots []int, res *Result) {
	res.ClusteredAreas = len(items)
	sub.attachHulls(items, slots)
	dist := func(i, j int) float64 { return sub.dist(slots[i], slots[j]) }
	eps := m.cfg.Eps
	if m.cfg.AutoEps && len(items) > 1 {
		eps = m.autoEps(len(items), dist)
	}
	res.ChosenEps = eps

	groups, order := partitionItems(items, eps)
	opts := aggregate.Options{SigmaRule: m.cfg.SigmaRule}
	var mr *mapRegion
	if m.cfg.Algorithm == AlgDBSCAN {
		mr = newMapRegion(sub.neighbours(eps))
	}
	for _, key := range order {
		part := groups[key]
		weights := make([]int, len(part))
		for i, idx := range part {
			weights[i] = items[idx].Weight
		}
		var dres *dbscan.Result
		if mr == nil {
			distFn := func(i, j int) float64 { return dist(part[i], part[j]) }
			o := dbscan.RunOPTICS(len(part), distFn, eps*2, m.cfg.MinPts, weights)
			dres = o.ExtractDBSCAN(eps)
		} else {
			partSlots := make([]int, len(part))
			for i, idx := range part {
				partSlots[i] = slots[idx]
			}
			dcfg := dbscan.Config{Eps: eps, MinPts: m.cfg.MinPts, Workers: m.cfg.Workers, Weights: weights}
			dres = mr.cluster(partSlots, dcfg)
		}
		collectPartition(res, items, part, dres, opts)
	}
	if mr != nil {
		sub.hits.Add(mr.reused)
	}
	res.DistanceEvals = sub.Evals()
	res.DistanceCacheHits = sub.Hits()
}

// partitionItems groups item indices by exact relation set when eps makes
// cross-partition neighbourhoods impossible: two areas with different table
// sets have d >= d_tables >= 1/(maxTables+1). Otherwise everything lands in
// one "" partition. Keys are returned in sorted order; member lists are in
// ascending item order.
func partitionItems(items []*aggregate.Item, eps float64) (map[string][]int, []string) {
	maxTables := 1
	for _, it := range items {
		if len(it.Area.Relations) > maxTables {
			maxTables = len(it.Area.Relations)
		}
	}
	groups := map[string][]int{}
	if eps < 1.0/float64(maxTables+1) {
		var order []string
		for i, it := range items {
			// The interned key is set when the item enters an accumulator;
			// items built directly (baselines, examples) derive it lazily so
			// later epochs over the same item reuse it.
			key := it.RelKey
			if key == "" && len(it.Area.Relations) > 0 {
				key = extract.RelationSetKey(it.Area.Relations)
				it.RelKey = key
			}
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], i)
		}
		sort.Strings(order)
		return groups, order
	}
	all := make([]int, len(items))
	for i := range items {
		all[i] = i
	}
	groups[""] = all
	return groups, []string{""}
}

// collectPartition folds one partition's clustering outcome into res:
// cluster members become aggregated summaries, noise weights accumulate.
func collectPartition(res *Result, items []*aggregate.Item, part []int, dres *dbscan.Result, opts aggregate.Options) {
	for _, memberIdx := range dres.ClusterIndices() {
		members := make([]*aggregate.Item, len(memberIdx))
		for i, idx := range memberIdx {
			members[i] = items[part[idx]]
		}
		res.Clusters = append(res.Clusters, aggregate.Summarize(0, members, opts))
	}
	for i, l := range dres.Labels {
		if l == dbscan.Noise {
			res.NoiseQueries += items[part[i]].Weight
		}
	}
}

// finalizeClusters orders clusters by cardinality (Table-1 style) and
// assigns stable ids. The tie-break chain must be total over every field
// the report renders: Expr alone collapses to "⊤" for unconstrained
// clusters, and sort.Slice is unstable, so an Expr-only tie-break would
// leave equal-cardinality clusters in input order — making the report
// depend on arrival interleaving (and a shard-merged result differ from
// the batch miner over the same log).
func finalizeClusters(res *Result) {
	sort.Slice(res.Clusters, func(i, j int) bool {
		a, b := res.Clusters[i], res.Clusters[j]
		if a.Cardinality != b.Cardinality {
			return a.Cardinality > b.Cardinality
		}
		if ae, be := a.Expr(), b.Expr(); ae != be {
			return ae < be
		}
		if ar, br := strings.Join(a.Relations, ","), strings.Join(b.Relations, ","); ar != br {
			return ar < br
		}
		if a.UserCount != b.UserCount {
			return a.UserCount > b.UserCount
		}
		return strings.Join(a.Representatives, "\n") < strings.Join(b.Representatives, "\n")
	})
	for i, c := range res.Clusters {
		c.ID = i + 1
	}
}

// autoEps picks eps from the k-distance knee over a bounded sample of item
// indices; dist is the substrate distance in item index space.
func (m *Miner) autoEps(n int, dist func(i, j int) float64) float64 {
	const maxSample = 1000
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	if n > maxSample {
		r := rand.New(rand.NewSource(m.cfg.Seed + 1))
		sample = r.Perm(n)[:maxSample]
	}
	kd := dbscan.KDistances(len(sample), func(i, j int) float64 { return dist(sample[i], sample[j]) }, m.cfg.MinPts)
	if eps := dbscan.SuggestEps(kd); eps > 0 {
		return eps
	}
	return m.cfg.Eps
}

// AttachCoverage fills area/object coverage for every cluster from a data
// source (Section 6.2's two coverage columns).
func (r *Result) AttachCoverage(src aggregate.DataSource) {
	for _, c := range r.Clusters {
		c.ComputeCoverage(src)
	}
}
