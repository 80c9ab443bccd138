package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/dbscan"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/skyserver"
)

// A substrate-sharing Incremental must produce exactly the clustering a
// private Incremental (and hence the batch miner) produces over the same
// records — the shared kernel/cache only change WHERE distances are
// computed, never their values.
func TestSubstrateEquivalentToPrivate(t *testing.T) {
	recs := synthRecords(2500, 11)

	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 11, Stats: seededStats()})
	batch := m.MineRecords(recs)

	sm := NewMiner(Config{Schema: skyserver.Schema(), Seed: 11, Stats: seededStats()})
	sub := sm.Substrate()
	inc := sm.IncrementalShared(sub)
	areaRecs, _ := sm.pipeline().Run(recs)
	const chunk = 700
	var last *Result
	for lo := 0; lo < len(areaRecs); lo += chunk {
		hi := lo + chunk
		if hi > len(areaRecs) {
			hi = len(areaRecs)
		}
		for i := lo; i < hi; i++ {
			inc.Add(&areaRecs[i])
		}
		last = inc.Recluster()
	}
	sameMining(t, batch, last)
}

// Two miners over the same area population through one substrate share all
// distance work: the second miner's epoch adds no kernel slots and no
// evaluations — every pair is a cache hit.
func TestSubstrateSharesDistanceWork(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 5, Stats: seededStats()})
	sub := m.Substrate()
	a := m.IncrementalShared(sub)
	b := m.IncrementalShared(sub)
	areaRecs, _ := m.pipeline().Run(synthRecords(2000, 5))
	if len(areaRecs) < 100 {
		t.Fatalf("synthetic log extracted only %d areas", len(areaRecs))
	}
	for i := range areaRecs {
		a.Add(&areaRecs[i])
		b.Add(&areaRecs[i])
	}
	ra := a.Recluster()
	slots, evals := sub.Slots(), sub.Evals()
	if slots == 0 || evals == 0 {
		t.Fatalf("first miner interned %d slots, %d evals", slots, evals)
	}
	rb := b.Recluster()
	if got := sub.Slots(); got != slots {
		t.Errorf("second miner interned %d new slots", got-slots)
	}
	if d := sub.Evals() - evals; d != 0 {
		t.Errorf("second miner re-evaluated %d distances", d)
	}
	if sub.Hits() == 0 {
		t.Error("second miner served no cache hits")
	}
	sameMining(t, ra, rb)
}

// The pivot index must save kernel evaluations outright. A brute-force
// neighbour scan evaluates each unordered pair of a relation-set partition
// once, Σ k(k−1)/2 over the partitions; a batch mine of the 2.5k Table-1
// workload (seed 42) must need at least 1.4× fewer (1.51× when the bound
// was set). TestMineRecordsMatchesBruteOracle proves the pruning lossless.
func TestPivotIndexSavesEvals(t *testing.T) {
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 2000, Seed: 42})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 42, Stats: stats})
	recs := synthRecords(2500, 42)
	res := m.MineRecords(recs)

	areaRecs, _ := m.pipeline().Run(recs)
	acc := newItemAccum()
	for i := range areaRecs {
		acc.add(&areaRecs[i])
	}
	groups, _ := partitionItems(acc.items, res.ChosenEps)
	var brute int64
	for _, part := range groups {
		k := int64(len(part))
		brute += k * (k - 1) / 2
	}
	t.Logf("%d distinct areas: %d pivot evals, %d brute-force pairs (%.2fx)",
		res.DistinctAreas, res.DistanceEvals, brute, float64(brute)/float64(res.DistanceEvals))
	if res.DistanceEvals == 0 || 14*res.DistanceEvals > 10*brute {
		t.Fatalf("pivot evals %d × 1.4 exceed the brute-force pair count %d", res.DistanceEvals, brute)
	}
}

// epochRun replays recs in chunks the way live ingest does — each chunk is
// extracted (growing the access(a) registry) and then an epoch runs — and
// checks after every epoch that the global miner equals a fresh batch mine
// over the same prefix. hook, when set, runs after each epoch.
func epochRun(t *testing.T, recs []qlog.Record, cfg Config, chunk int,
	global *Incremental, m *Miner, addOthers func(ar *qlog.AreaRecord), hook func(epoch int)) {
	t.Helper()
	for lo, epoch := 0, 0; lo < len(recs); lo, epoch = lo+chunk, epoch+1 {
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		areaRecs, _ := m.pipeline().Run(recs[lo:hi])
		for i := range areaRecs {
			global.Add(&areaRecs[i])
			if addOthers != nil {
				addOthers(&areaRecs[i])
			}
		}
		got := global.Recluster()
		bcfg := cfg
		bcfg.Stats = seededStats()
		sameMining(t, NewMiner(bcfg).MineRecords(recs[:hi]), got)
		if hook != nil {
			hook(epoch)
		}
	}
}

// The acceptance guard for epochs that keep their work: with access(a)
// moving on a strict subset of columns between epochs, every epoch's global
// Recluster equals a fresh batch mine over the same prefix, the class
// miners sharing the global miner's substrate equal private Incrementals,
// and the partial path — recompiling and rescanning only the changed slots
// — actually ran.
func TestEpochsRescanOnlyChangedSlots(t *testing.T) {
	recs := synthRecords(3000, 7)
	cfg := Config{Schema: skyserver.Schema(), Seed: 7}
	mcfg := cfg
	mcfg.Stats = seededStats()
	m := NewMiner(mcfg)
	sub := m.Substrate()
	global := m.IncrementalShared(sub)
	var shared, private [3]*Incremental
	for c := range shared {
		shared[c] = m.IncrementalShared(sub)
		private[c] = m.Incremental()
	}
	addClass := func(ar *qlog.AreaRecord) {
		c := ar.Record.Seq % 3
		shared[c].Add(ar)
		private[c].Add(ar)
	}
	partial, lastSeq, gen := 0, sub.g.seq, m.Stats().Generation()
	epochRun(t, recs, cfg, 375, global, m, addClass, func(epoch int) {
		cols, all, cur := m.Stats().ChangedSince(gen)
		gen = cur
		if all {
			t.Fatalf("epoch %d: the registry reported a restore", epoch)
		}
		if sub.g.seq != lastSeq && sub.lastStale > 0 && sub.lastDirty < sub.Slots() {
			partial++
			t.Logf("epoch %d: %d columns moved, %d changed + %d new of %d slots rescanned",
				epoch, len(cols), sub.lastStale, sub.lastDirty-sub.lastStale, sub.Slots())
		}
		lastSeq = sub.g.seq
		for c := range shared {
			sameMining(t, private[c].Recluster(), shared[c].Recluster())
		}
	})
	if partial == 0 {
		t.Fatal("no epoch recompiled a strict subset of the existing slots")
	}
	if sub.builds != 1 {
		t.Fatalf("fixed eps, no restore: graph built %d times, want once", sub.builds)
	}
}

// The rebuild path goes through the same code: a registry restore marks
// every slot dirty, and the epochs after it still equal the batch miner.
func TestEpochsRebuildOnEpsChangeAndRestore(t *testing.T) {
	recs := synthRecords(1600, 9)
	t.Run("restore", func(t *testing.T) {
		cfg := Config{Schema: skyserver.Schema(), Seed: 9}
		mcfg := cfg
		mcfg.Stats = seededStats()
		m := NewMiner(mcfg)
		inc := m.Incremental()
		restored := false
		epochRun(t, recs, cfg, 400, inc, m, nil, func(epoch int) {
			switch epoch {
			case 2:
				// An identical registry, but ChangedSince cannot tell: the
				// next epoch must recompile and rescan everything.
				m.Stats().RestoreSnapshot(m.Stats().Snapshot())
			case 3:
				if inc.sub.builds != 2 || inc.sub.lastStale != 0 || inc.sub.lastDirty != inc.sub.Slots() {
					t.Fatalf("after restore: %d builds, %d changed + %d new of %d slots",
						inc.sub.builds, inc.sub.lastStale, inc.sub.lastDirty-inc.sub.lastStale, inc.sub.Slots())
				}
				restored = true
			}
		})
		if !restored {
			t.Fatal("log too short to reach the post-restore epoch")
		}
	})
}

// Every clustered item summarises from its slot's hull list: one list per
// distinct area, equal to aggregate.AreaHulls, whichever miner on the
// substrate interned it — and a miner restored through ExportState /
// RestoreState gets one for every item.
func TestClusteredItemsCarrySharedHulls(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 9, Stats: seededStats()})
	sub := m.Substrate()
	a, b := m.IncrementalShared(sub), m.IncrementalShared(sub)
	areaRecs, _ := m.pipeline().Run(synthRecords(1500, 9))
	for i := range areaRecs {
		a.Add(&areaRecs[i])
		if i%3 == 0 {
			b.Add(&areaRecs[i])
		}
	}
	a.Recluster()
	b.Recluster()
	checkHulls := func(name string, inc *Incremental) {
		t.Helper()
		if len(inc.sub.hulls) != inc.sub.Slots() {
			t.Fatalf("%s: %d hull lists for %d slots", name, len(inc.sub.hulls), inc.sub.Slots())
		}
		items, _ := inc.snapshotItems()
		if len(inc.slots) != len(items) {
			t.Fatalf("%s: %d slots for %d items", name, len(inc.slots), len(items))
		}
		for i, it := range items {
			got := inc.sub.hulls[inc.slots[i]]
			if want := aggregate.AreaHulls(it.Area); got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: item %d hulls %v, want %v", name, i, got, want)
			}
		}
	}
	checkHulls("a", a)
	checkHulls("b", b)

	// A batch mine hands the hull lists to the items it clusters.
	acc := newItemAccum()
	for i := range areaRecs {
		acc.add(&areaRecs[i])
	}
	m.mineItems(acc.items, &Result{})
	for i, it := range acc.items {
		if it.Hulls == nil || !reflect.DeepEqual(it.Hulls, aggregate.AreaHulls(it.Area)) {
			t.Fatalf("batch item %d hulls %v", i, it.Hulls)
		}
	}

	restoredStats := schema.NewStats()
	restoredStats.RestoreSnapshot(m.Stats().Snapshot())
	m2 := NewMiner(Config{Schema: skyserver.Schema(), Seed: 9, Stats: restoredStats})
	r := m2.Incremental()
	if err := r.RestoreState(a.ExportState(), m2.pipeline()); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	sameMining(t, a.Recluster(), r.Recluster())
	checkHulls("restored", r)
}

// A partition whose slots do not ascend clusters from the transposed CSR.
// Over a substrate shared by a global and three class miners (the seq%3
// split TestNeighbourGraphMatchesBrute uses), every partition of every
// class miner, and every global partition in shuffled member orders, is
// clustered through mapRegion and checked against the filtered and sorted
// lists: each region must equal its sorted list, and ClusterGraph's labels
// and the reused count must be the same on both paths. Ascending partitions
// check the streaming path the same way.
func TestTransposedRegionsMatchSorted(t *testing.T) {
	recs := synthRecords(1500, 7)
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 7, Stats: seededStats()})
	sub := m.Substrate()
	var miners []*Incremental
	for i := 0; i < 4; i++ {
		miners = append(miners, m.IncrementalShared(sub))
	}
	areaRecs, _ := m.pipeline().Run(recs)
	add := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := &areaRecs[i]
			miners[0].Add(ar)
			miners[1+ar.Record.Seq%3].Add(ar)
		}
	}
	// The first epoch builds the graph; the second adds slots, so its
	// update leaves both fresh and reused entries for the reused count.
	half := len(areaRecs) / 2
	add(0, half)
	for _, inc := range miners {
		inc.Recluster()
	}
	add(half, len(areaRecs))
	var parts [][]int // partition slots, in member order
	var weights [][]int
	for _, inc := range miners {
		items, _ := inc.snapshotItems()
		inc.slots = append(inc.slots, sub.sync(items[len(inc.slots):])...)
		groups, order := partitionItems(items, m.cfg.Eps)
		for _, key := range order {
			var slots, w []int
			for _, idx := range groups[key] {
				slots = append(slots, inc.slots[idx])
				w = append(w, items[idx].Weight)
			}
			parts, weights = append(parts, slots), append(weights, w)
		}
	}
	g, before := sub.neighbours(m.cfg.Eps)
	if before == g.seq {
		t.Fatal("the second epoch's graph update rescanned nothing")
	}
	r := rand.New(rand.NewSource(7))
	for i, n := 0, len(parts); i < n; i++ {
		if len(parts[i]) > 2 && slices.IsSorted(parts[i]) {
			shuffled := slices.Clone(parts[i])
			w := slices.Clone(weights[i])
			r.Shuffle(len(shuffled), func(a, b int) {
				shuffled[a], shuffled[b] = shuffled[b], shuffled[a]
				w[a], w[b] = w[b], w[a]
			})
			parts, weights = append(parts, shuffled), append(weights, w)
		}
	}

	transposed, fresh, reused := 0, false, false
	for p, slots := range parts {
		// The reference: each list filtered to the partition, mapped to
		// local indices, itself added, sorted.
		local := make(map[int32]int, len(slots))
		for i, s := range slots {
			local[int32(s)] = i
		}
		want := make([][]int, len(slots))
		var wantReused int64
		for i, s := range slots {
			want[i] = []int{i}
			scanned := g.scanned[s] > before
			fresh = fresh || scanned
			for _, t := range g.nbrs[s] {
				if li, ok := local[t]; ok {
					want[i] = append(want[i], li)
					if !scanned && g.scanned[t] <= before {
						wantReused++
					}
				}
			}
			sort.Ints(want[i])
		}
		reused = reused || wantReused > 0
		cfg := dbscan.Config{Eps: m.cfg.Eps, MinPts: m.cfg.MinPts, Weights: weights[p]}
		wantRes := dbscan.ClusterGraph(len(slots), func(i int) []int { return want[i] }, cfg)

		mr := sub.mapRegion(g, before)
		res := mr.cluster(slots, cfg)
		got := make([][]int, len(slots))
		if slices.IsSorted(slots) {
			// The streaming path maps each list on demand: replay it.
			probe := sub.mapRegion(g, before)
			probe.slotsOf = slots
			for i, s := range slots {
				probe.sc.local[s] = int32(i)
			}
			for i := range slots {
				got[i] = slices.Clone(probe.region(i))
			}
			for _, s := range slots {
				probe.sc.local[s] = -1
			}
		} else {
			// The CSR still holds the partition just clustered.
			transposed++
			for i := range slots {
				got[i] = slices.Clone(mr.run(i))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d (%d members, ascending %v): regions differ from the sorted lists",
				p, len(slots), slices.IsSorted(slots))
		}
		if !reflect.DeepEqual(res.Labels, wantRes.Labels) {
			t.Fatalf("partition %d: labels differ from the sorted lists'", p)
		}
		if mr.reused != wantReused {
			t.Fatalf("partition %d: reused %d, sorted lists %d", p, mr.reused, wantReused)
		}
	}
	t.Logf("%d partitions, %d transposed", len(parts), transposed)
	if transposed < 20 || !fresh || !reused {
		t.Fatalf("%d transposed partitions, fresh entries %v, reused entries %v: the test exercised too little",
			transposed, fresh, reused)
	}
}
