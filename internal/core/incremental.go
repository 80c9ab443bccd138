package core

import (
	"fmt"
	"sort"

	"repro/internal/aggregate"
	"repro/internal/dbscan"
	"repro/internal/qlog"
)

// Incremental is the epoch-based mining state behind the skyserved service.
// Extractions accumulate between epochs through Add; Recluster re-runs the
// clustering stage over everything seen so far through its Substrate, which
// keeps every piece of distance work whose inputs are provably unchanged:
//
//   - compiled profiles, recompiled only where a column they read moved in
//     the access(a) registry (schema.Stats.ChangedSince);
//   - per-group LAESA pivot tables, extended over new areas and refreshed
//     at changed ones;
//   - the eps-neighbour graph, rescanned only for new and changed areas.
//
// A DBSCAN epoch therefore evaluates distances only for the new part of the
// log and the areas a registry move touched, then clusters every partition
// from the graph (dbscan.ClusterGraph).
//
// Because items accumulate in the same first-occurrence order the batch
// mine() dedups in, a final-epoch Recluster over a fully drained log is
// equivalent to MineRecords over the same records (same eps selection, same
// partition traversal, same neighbourhoods and distance values) — the
// property the serve smoke test asserts byte-for-byte on the report.
//
// Add is safe to call concurrently with other Adds. Recluster must not run
// concurrently with itself (or with another miner's on a shared substrate)
// but may overlap Adds: it clusters a consistent snapshot of the items
// admitted before it started.
type Incremental struct {
	m   *Miner
	acc *itemAccum

	// reps holds the first record that produced each item — the
	// representative re-extracted on restore.
	reps []qlog.Record

	// sub holds every compiled profile and cross-epoch distance structure;
	// slots maps local item index → substrate slot.
	sub   *Substrate
	slots []int

	// delta is the previous epoch's clustering in global item indices — the
	// state a DeltaEpochs ReclusterAuto reduces against. nil until the first
	// full epoch records an anchor.
	delta *deltaState
}

// deltaState captures one epoch's clustering outcome for the delta path.
type deltaState struct {
	// n is the item count the epoch covered; items[n:] are new next time.
	n int
	// clusters are the global member index lists (ascending) per cluster;
	// noise the global indices left unclustered.
	clusters [][]int
	noise    []int
	// sinceAnchor counts delta epochs since the last full re-cluster;
	// anchorEps is the eps that full epoch chose (deltas do not re-derive
	// eps — a drifting k-distance curve is re-anchored at the next full
	// epoch instead).
	sinceAnchor int
	anchorEps   float64
	// gen is the access(a) registry generation the anchor's profiles were
	// compiled against; a delta is only sound while it holds.
	gen uint64
}

// Incremental returns a fresh epoch-based miner sharing this Miner's
// configuration and access(a) registry, over a private substrate.
func (m *Miner) Incremental() *Incremental {
	return m.IncrementalShared(m.Substrate())
}

// IncrementalShared returns an epoch-based miner that clusters through a
// substrate shared with other miners — the per-class miners use this so
// overlapping area populations pay for each neighbourhood once. Results are
// bit-identical to a private Incremental over the same records. Miners
// sharing a substrate must recluster sequentially; Adds may still run
// concurrently.
func (m *Miner) IncrementalShared(sub *Substrate) *Incremental {
	return &Incremental{
		m:   m,
		acc: newItemAccum(),
		sub: sub,
	}
}

// Add folds one extracted record into the accumulator. It reports whether
// the record introduced a new distinct area (the serve epoch trigger counts
// those).
func (inc *Incremental) Add(ar *qlog.AreaRecord) (isNew bool) {
	inc.acc.mu.Lock()
	defer inc.acc.mu.Unlock()
	idx, isNew := inc.acc.add(ar)
	if isNew && idx == len(inc.reps) {
		inc.reps = append(inc.reps, ar.Record)
	}
	return isNew
}

// Distinct returns the current distinct-area count.
func (inc *Incremental) Distinct() int {
	inc.acc.mu.Lock()
	defer inc.acc.mu.Unlock()
	return len(inc.acc.items)
}

// DistanceEvals and DistanceCacheHits expose the substrate's lifetime
// counters: kernel evaluations, and neighbour-graph entries reused instead
// of evaluated. Both only grow, across registry moves included; per-epoch
// deltas give the reuse ratio serveperf reports.
func (inc *Incremental) DistanceEvals() int64 { return inc.sub.Evals() }

func (inc *Incremental) DistanceCacheHits() int64 { return inc.sub.Hits() }

// snapshotItems copies the accumulator state admitted so far: shallow item
// copies (areas are immutable; weights and user sets keep mutating under
// concurrent Adds) plus the contradictory count.
func (inc *Incremental) snapshotItems() ([]*aggregate.Item, int) {
	inc.acc.mu.Lock()
	defer inc.acc.mu.Unlock()
	items := make([]*aggregate.Item, len(inc.acc.items))
	for i, it := range inc.acc.items {
		users := make(map[string]struct{}, len(it.Users))
		for u := range it.Users {
			users[u] = struct{}{}
		}
		items[i] = &aggregate.Item{Area: it.Area, Weight: it.Weight, Users: users, RelKey: it.RelKey, Key: it.Key}
	}
	return items, inc.acc.contradictory
}

// Recluster runs one full epoch: it clusters every area admitted before the
// call and returns the same Result shape as a batch mine. DistanceEvals and
// DistanceCacheHits report the substrate's lifetime counters.
func (inc *Incremental) Recluster() *Result {
	return inc.recluster(true)
}

// ReclusterAuto runs one epoch, choosing between a full re-cluster and a
// delta epoch (cfg.DeltaEpochs). A delta epoch clusters only the reduced
// set — one weighted representative per stable cluster, plus last epoch's
// noise and the areas admitted since — and every cfg.FullReclusterEvery-th
// epoch is forced full so the approximation is re-anchored to the exact
// clustering. Configurations the delta path cannot serve (OPTICS, sampling,
// a moved access(a) registry, no anchor yet) run full.
func (inc *Incremental) ReclusterAuto() *Result {
	full := !inc.m.cfg.DeltaEpochs ||
		inc.m.cfg.Algorithm != AlgDBSCAN ||
		inc.m.cfg.SampleSize > 0 ||
		inc.delta == nil ||
		inc.delta.sinceAnchor+1 >= inc.m.fullReclusterEvery()
	return inc.recluster(full)
}

func (m *Miner) fullReclusterEvery() int {
	if m.cfg.FullReclusterEvery > 0 {
		return m.cfg.FullReclusterEvery
	}
	return 8
}

func (inc *Incremental) recluster(full bool) *Result {
	ep := epochStage.Start()
	defer ep.End()
	epochsTotal.Inc()
	snapSp := epochSnapshotStage.Start()
	items, contradictory := inc.snapshotItems()
	snapSp.End()
	res := &Result{
		ContradictoryAreas: contradictory,
		DistinctAreas:      len(items),
	}

	// Sampling shuffles items in place and breaks index stability; when it
	// triggers, fall back to the batch engine on the snapshot (correct, no
	// cross-epoch reuse, no delta anchor). The serving default is
	// SampleSize = 0.
	if inc.m.cfg.SampleSize > 0 && len(items) > inc.m.cfg.SampleSize {
		inc.delta = nil
		inc.m.clusterBody(items, res)
		return res
	}

	profSp := epochProfilesStage.Start()
	slots, gen := inc.sub.sync(items[len(inc.slots):])
	inc.slots = append(inc.slots, slots...)
	profSp.End()
	dist := func(i, j int) float64 { return inc.sub.dist(inc.slots[i], inc.slots[j]) }

	// A delta anchor is only valid while the registry its profiles were
	// compiled from is unchanged.
	if inc.delta != nil && inc.delta.gen != gen {
		inc.delta = nil
	}
	if !full && inc.delta != nil {
		return inc.deltaEpoch(items, res, dist)
	}
	anchorEpochsTotal.Inc()
	res.ClusteredAreas = len(items)

	eps := inc.m.cfg.Eps
	if inc.m.cfg.AutoEps && len(items) > 1 {
		var sampleHits int64
		eps, sampleHits = inc.m.autoEps(len(items), dist)
		res.DistanceCacheHits += sampleHits
	}
	res.ChosenEps = eps

	groups, order := partitionItems(items, eps)
	opts := aggregate.Options{SigmaRule: inc.m.cfg.SigmaRule, MinColumnSupport: inc.m.cfg.MinColumnSupport}

	// A full DBSCAN epoch doubles as the delta anchor: record the clustering
	// in global item indices so the next ReclusterAuto can reduce against it.
	var anchor *deltaState
	clusterSp := epochClusterStage.Start()
	var mr *mapRegion
	if inc.m.cfg.Algorithm == AlgDBSCAN {
		anchor = &deltaState{n: len(items), anchorEps: eps, gen: gen}
		mr = newMapRegion(inc.sub.neighbours(eps))
	}
	for _, key := range order {
		part := groups[key]
		weights := make([]int, len(part))
		for i, idx := range part {
			weights[i] = items[idx].Weight
		}
		dcfg := dbscan.Config{Eps: eps, MinPts: inc.m.cfg.MinPts, Workers: inc.m.cfg.Workers, Weights: weights}
		var dres *dbscan.Result
		if mr == nil {
			distFn := func(i, j int) float64 { return dist(part[i], part[j]) }
			o := dbscan.RunOPTICS(len(part), distFn, eps*2, inc.m.cfg.MinPts, weights)
			dres = o.ExtractDBSCAN(eps)
		} else {
			slots := make([]int, len(part))
			for i, idx := range part {
				slots[i] = inc.slots[idx]
			}
			dres = mr.cluster(slots, dcfg)
		}
		collectPartition(res, items, part, dres, opts)
		if anchor != nil {
			for _, memberIdx := range dres.ClusterIndices() {
				global := make([]int, len(memberIdx))
				for i, idx := range memberIdx {
					global[i] = part[idx]
				}
				anchor.clusters = append(anchor.clusters, global)
			}
			for i, l := range dres.Labels {
				if l == dbscan.Noise {
					anchor.noise = append(anchor.noise, part[i])
				}
			}
		}
	}
	if mr != nil {
		inc.sub.hits.Add(mr.reused)
	}
	clusterSp.End()
	inc.delta = anchor

	res.DistanceEvals = inc.sub.Evals()
	res.DistanceCacheHits += inc.sub.Hits()

	finSp := epochFinalizeStage.Start()
	finalizeClusters(res)
	finSp.End()
	return res
}

// deltaEpoch clusters the reduced point set — one representative per stable
// cluster carrying the cluster's total weight, plus last epoch's noise and
// the items admitted since — then merges representative clusters back into
// full member lists. Density is conserved in the representative direction:
// a cluster's total weight rides on its representative, so prior clusters
// can merge through new bridge points; prior clusters are never re-split
// until the next full anchor re-clusters from scratch.
func (inc *Incremental) deltaEpoch(items []*aggregate.Item, res *Result, dist func(i, j int) float64) *Result {
	deltaEpochsTotal.Inc()
	prior := inc.delta
	eps := prior.anchorEps
	res.ChosenEps = eps
	opts := aggregate.Options{SigmaRule: inc.m.cfg.SigmaRule, MinColumnSupport: inc.m.cfg.MinColumnSupport}

	// reduced[i] describes point i of the reduced set: its global item index,
	// its DBSCAN weight, and the prior cluster it stands for (-1 for noise
	// and new items, which stand only for themselves).
	type redPoint struct {
		global int
		weight int
		prior  int
	}
	reduced := make([]redPoint, 0, len(prior.clusters)+len(prior.noise)+len(items)-prior.n)
	for ci, members := range prior.clusters {
		rep, total := members[0], 0
		for _, g := range members {
			total += items[g].Weight
			if items[g].Weight > items[rep].Weight {
				rep = g
			}
		}
		reduced = append(reduced, redPoint{global: rep, weight: total, prior: ci})
	}
	for _, g := range prior.noise {
		reduced = append(reduced, redPoint{global: g, weight: items[g].Weight, prior: -1})
	}
	for g := prior.n; g < len(items); g++ {
		reduced = append(reduced, redPoint{global: g, weight: items[g].Weight, prior: -1})
	}
	res.ClusteredAreas = len(reduced)
	deltaPointsTotal.Add(int64(len(reduced)))

	// Partition the reduced set by relation set exactly like a full epoch
	// (representatives inherit their area's relation set, so every prior
	// member shares its representative's partition).
	redItems := make([]*aggregate.Item, len(reduced))
	for i, p := range reduced {
		redItems[i] = items[p.global]
	}
	groups, order := partitionItems(redItems, eps)

	next := &deltaState{n: len(items), anchorEps: eps, sinceAnchor: prior.sinceAnchor + 1, gen: prior.gen}
	clusterSp := epochClusterStage.Start()
	for _, key := range order {
		part := groups[key] // indices into reduced
		weights := make([]int, len(part))
		for i, idx := range part {
			weights[i] = reduced[idx].weight
		}
		distFn := func(i, j int) float64 {
			return dist(reduced[part[i]].global, reduced[part[j]].global)
		}
		dcfg := dbscan.Config{Eps: eps, MinPts: inc.m.cfg.MinPts, Workers: inc.m.cfg.Workers, Weights: weights}
		var dres *dbscan.Result
		if inc.m.usePivots(len(part)) {
			// Fresh pivots per delta: the reduced index space changes every
			// epoch, so the persistent per-partition indexes (anchored to
			// global indices) cannot be extended here.
			dres = dbscan.ClusterWithPivots(len(part), distFn, dcfg, inc.m.pivotCount())
		} else {
			dres = dbscan.Cluster(len(part), distFn, dcfg)
		}

		// Merge back: each reduced member expands to the prior cluster it
		// stands for (or itself), giving full member lists in global indices.
		for _, memberIdx := range dres.ClusterIndices() {
			var global []int
			for _, idx := range memberIdx {
				p := reduced[part[idx]]
				if p.prior >= 0 {
					global = append(global, prior.clusters[p.prior]...)
				} else {
					global = append(global, p.global)
				}
			}
			sort.Ints(global)
			next.clusters = append(next.clusters, global)
		}
		for i, l := range dres.Labels {
			if l != dbscan.Noise {
				continue
			}
			p := reduced[part[i]]
			if p.prior >= 0 {
				// Defensive: a representative carries its cluster's total
				// weight (>= MinPts) and is core in its own neighbourhood, so
				// it cannot be labelled noise; if that invariant ever breaks,
				// keep the prior cluster rather than dissolving it.
				next.clusters = append(next.clusters, prior.clusters[p.prior])
				continue
			}
			next.noise = append(next.noise, p.global)
			res.NoiseQueries += items[p.global].Weight
		}
	}
	sort.Ints(next.noise)

	for _, global := range next.clusters {
		members := make([]*aggregate.Item, len(global))
		for i, g := range global {
			members[i] = items[g]
		}
		res.Clusters = append(res.Clusters, aggregate.Summarize(0, members, opts))
	}
	clusterSp.End()
	inc.delta = next

	res.DistanceEvals = inc.sub.Evals()
	res.DistanceCacheHits = inc.sub.Hits()

	finSp := epochFinalizeStage.Start()
	finalizeClusters(res)
	finSp.End()
	return res
}

// ItemState is the serialisable form of one distinct access area: the
// representative statement that first produced it plus the accumulated
// weight and user set. Restore re-extracts the representative instead of
// serialising the CNF — cheap, and guaranteed consistent with the restored
// access(a) registry.
type ItemState struct {
	SQL    string   `json:"sql"`
	Seq    int      `json:"seq"`
	Time   int64    `json:"time,omitempty"`
	User   string   `json:"user,omitempty"`
	Weight int      `json:"weight"`
	Users  []string `json:"users,omitempty"`
}

// State is the serialisable mining state. It deliberately excludes the
// access(a) registry: the owner (internal/serve) snapshots schema.Stats
// alongside and must restore it BEFORE RestoreState so re-extraction
// reproduces the exact areas that were exported.
type State struct {
	Items         []ItemState `json:"items"`
	Contradictory int         `json:"contradictory,omitempty"`
}

// ExportState captures the accumulator for a snapshot.
func (inc *Incremental) ExportState() *State {
	inc.acc.mu.Lock()
	defer inc.acc.mu.Unlock()
	st := &State{
		Items:         make([]ItemState, len(inc.acc.items)),
		Contradictory: inc.acc.contradictory,
	}
	for i, it := range inc.acc.items {
		users := make([]string, 0, len(it.Users))
		for u := range it.Users {
			users = append(users, u)
		}
		sort.Strings(users)
		rep := inc.reps[i]
		st.Items[i] = ItemState{
			SQL:    rep.SQL,
			Seq:    rep.Seq,
			Time:   rep.Time,
			User:   rep.User,
			Weight: it.Weight,
			Users:  users,
		}
	}
	return st
}

// RestoreState rebuilds the accumulator from an exported state by
// re-extracting each representative statement in order. It must be called
// on a fresh Incremental whose Stats registry has already been restored.
func (inc *Incremental) RestoreState(st *State) error {
	if st == nil {
		return nil
	}
	if inc.Distinct() > 0 {
		return fmt.Errorf("core: RestoreState on a non-empty Incremental")
	}
	recs := make([]qlog.Record, len(st.Items))
	for i, it := range st.Items {
		recs[i] = qlog.Record{Seq: it.Seq, Time: it.Time, User: it.User, SQL: it.SQL}
	}
	areaRecs, _ := inc.m.pipeline().Run(recs)
	if len(areaRecs) != len(st.Items) {
		return fmt.Errorf("core: restore re-extracted %d of %d representatives", len(areaRecs), len(st.Items))
	}
	inc.acc.mu.Lock()
	defer inc.acc.mu.Unlock()
	for i := range areaRecs {
		idx, isNew := inc.acc.add(&areaRecs[i])
		if idx < 0 {
			return fmt.Errorf("core: representative %d became contradictory on restore", st.Items[i].Seq)
		}
		if !isNew {
			return fmt.Errorf("core: representatives %d and %d collapsed to one area on restore", inc.reps[idx].Seq, st.Items[i].Seq)
		}
		inc.reps = append(inc.reps, areaRecs[i].Record)
		it := inc.acc.items[idx]
		it.Weight = st.Items[i].Weight
		it.Users = make(map[string]struct{}, len(st.Items[i].Users))
		for _, u := range st.Items[i].Users {
			it.Users[u] = struct{}{}
		}
	}
	inc.acc.contradictory = st.Contradictory
	return nil
}
