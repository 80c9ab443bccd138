package core

import (
	"fmt"
	"sort"

	"repro/internal/aggregate"
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
// A batch mine runs the same engine (Miner.cluster) over a fresh substrate,
// and items accumulate in the same first-occurrence order it dedups in, so
// a final-epoch Recluster over a fully drained log is equivalent to
// MineRecords over the same records (same eps selection, same partition
// traversal, same neighbourhoods and distance values) — the property the
// serve smoke test asserts byte-for-byte on the report.
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
// of evaluated. Both only grow, across registry moves included, so the
// difference of two readings is the work and reuse of the epochs between.
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

// Recluster runs one epoch: it clusters every area admitted before the call
// through the substrate and returns the same Result shape as a batch mine.
// DistanceEvals and DistanceCacheHits report the substrate's lifetime
// counters.
func (inc *Incremental) Recluster() *Result {
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

	// Sampling shuffles the snapshot and so breaks slot stability: cluster
	// it like a batch mine, through a fresh substrate. The serving default
	// is SampleSize = 0.
	if inc.m.sampling(len(items)) {
		inc.m.mineItems(items, res)
		return res
	}

	profSp := epochProfilesStage.Start()
	inc.slots = append(inc.slots, inc.sub.sync(items[len(inc.slots):])...)
	profSp.End()

	clusterSp := epochClusterStage.Start()
	inc.m.cluster(inc.sub, items, inc.slots, res)
	clusterSp.End()

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
