package core

import (
	"reflect"
	"testing"

	"repro/internal/aggregate"
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

// The rebuild paths go through the same code: an AutoEps eps change and a
// registry restore each mark every slot dirty, and the epochs after them
// still equal the batch miner.
func TestEpochsRebuildOnEpsChangeAndRestore(t *testing.T) {
	recs := synthRecords(1600, 9)
	t.Run("auto-eps", func(t *testing.T) {
		cfg := Config{Schema: skyserver.Schema(), Seed: 9, AutoEps: true}
		mcfg := cfg
		mcfg.Stats = seededStats()
		m := NewMiner(mcfg)
		inc := m.Incremental()
		epsSeen := map[float64]bool{}
		epochRun(t, recs, cfg, 400, inc, m, nil, func(int) { epsSeen[inc.sub.g.eps] = true })
		if len(epsSeen) < 2 || inc.sub.builds < 2 {
			t.Fatalf("eps never changed: %d distinct eps, %d graph builds", len(epsSeen), inc.sub.builds)
		}
	})
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
	if err := r.RestoreState(a.ExportState()); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	sameMining(t, a.Recluster(), r.Recluster())
	checkHulls("restored", r)
}
