package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/skyserver"
)

func seededStats() *schema.Stats {
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 400, Seed: 1})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)
	return stats
}

func synthRecords(queries int, seed int64) []qlog.Record {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: queries, Seed: seed})
	return toRecords(entries)
}

// sameMining asserts two results agree on everything report.Write surfaces.
func sameMining(t *testing.T, batch, inc *Result) {
	t.Helper()
	if batch.DistinctAreas != inc.DistinctAreas ||
		batch.ClusteredAreas != inc.ClusteredAreas ||
		batch.ContradictoryAreas != inc.ContradictoryAreas ||
		batch.NoiseQueries != inc.NoiseQueries ||
		batch.ChosenEps != inc.ChosenEps {
		t.Fatalf("counters differ: batch{distinct %d clustered %d contradictory %d noise %d eps %g} vs inc{%d %d %d %d %g}",
			batch.DistinctAreas, batch.ClusteredAreas, batch.ContradictoryAreas, batch.NoiseQueries, batch.ChosenEps,
			inc.DistinctAreas, inc.ClusteredAreas, inc.ContradictoryAreas, inc.NoiseQueries, inc.ChosenEps)
	}
	if len(batch.Clusters) != len(inc.Clusters) {
		t.Fatalf("cluster counts differ: batch %d vs incremental %d", len(batch.Clusters), len(inc.Clusters))
	}
	for i := range batch.Clusters {
		b, c := batch.Clusters[i], inc.Clusters[i]
		if b.ID != c.ID || b.Cardinality != c.Cardinality || b.Expr() != c.Expr() {
			t.Fatalf("cluster %d differs:\nbatch: card=%d %s\ninc:   card=%d %s",
				i, b.Cardinality, b.Expr(), c.Cardinality, c.Expr())
		}
	}
}

// The acceptance guard: pushing a log through the epoch-based miner in
// chunks — reclustering after every chunk — must end with exactly the
// clustering the one-shot batch miner produces over the same records.
func TestIncrementalEquivalentToBatch(t *testing.T) {
	recs := synthRecords(3000, 42)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed-eps", Config{Schema: skyserver.Schema(), Seed: 42}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bcfg := tc.cfg
			bcfg.Stats = seededStats()
			batchRes := NewMiner(bcfg).MineRecords(recs)

			icfg := tc.cfg
			icfg.Stats = seededStats()
			im := NewMiner(icfg)
			inc := im.Incremental()
			areaRecs, _ := im.pipeline().Run(recs)
			const chunk = 600
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
			sameMining(t, batchRes, last)
		})
	}
}

// With a settled access(a) registry, a re-clustering epoch over unchanged
// data must be answered entirely from the cross-epoch distance cache, and
// an epoch over appended data must only evaluate pairs involving new items.
func TestIncrementalReusesDistancesAcrossEpochs(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 7, Stats: seededStats()})
	inc := m.Incremental()
	areaRecs, _ := m.pipeline().Run(synthRecords(2500, 7))
	if len(areaRecs) < 100 {
		t.Fatalf("synthetic log extracted only %d areas", len(areaRecs))
	}
	// Extraction is complete, so the registry generation is now stable and
	// cross-epoch reuse is sound.
	half := len(areaRecs) / 2
	for i := 0; i < half; i++ {
		inc.Add(&areaRecs[i])
	}
	inc.Recluster()
	e1 := inc.DistanceEvals()
	if e1 == 0 {
		t.Fatal("first epoch evaluated no distances")
	}

	// Idle epoch: identical input, zero new evaluations.
	inc.Recluster()
	if d := inc.DistanceEvals() - e1; d != 0 {
		t.Errorf("idle epoch re-evaluated %d distances", d)
	}

	// Growth epoch: only new-point pairs may cost evaluations.
	for i := half; i < len(areaRecs); i++ {
		inc.Add(&areaRecs[i])
	}
	grown := inc.Recluster()
	e2 := inc.DistanceEvals()
	if e2 <= e1 {
		t.Fatal("growth epoch evaluated nothing new")
	}

	// And a second idle epoch over the grown set is again free.
	hitsBefore := inc.DistanceCacheHits()
	again := inc.Recluster()
	if d := inc.DistanceEvals() - e2; d != 0 {
		t.Errorf("idle epoch after growth re-evaluated %d distances", d)
	}
	if inc.DistanceCacheHits() == hitsBefore {
		t.Error("idle epoch served no cache hits")
	}
	sameMining(t, grown, again)
}

// ExportState → RestoreState (with the access(a) registry snapshot carried
// alongside, as internal/serve does) must reproduce the exact clustering.
func TestIncrementalStateRoundTrip(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 3, Stats: seededStats()})
	inc := m.Incremental()
	areaRecs, _ := m.pipeline().Run(synthRecords(2000, 3))
	for i := range areaRecs {
		inc.Add(&areaRecs[i])
	}
	before := inc.Recluster()

	st := inc.ExportState()
	statsSnap := m.Stats().Snapshot()

	restoredStats := schema.NewStats()
	restoredStats.RestoreSnapshot(statsSnap)
	m2 := NewMiner(Config{Schema: skyserver.Schema(), Seed: 3, Stats: restoredStats})
	inc2 := m2.Incremental()
	if err := inc2.RestoreState(st, m2.pipeline()); err != nil {
		t.Fatalf("RestoreState: %v", err)
	}
	if got, want := inc2.Distinct(), inc.Distinct(); got != want {
		t.Fatalf("restored %d distinct areas, want %d", got, want)
	}
	after := inc2.Recluster()
	sameMining(t, before, after)

	// A second export must be identical to the first — users, weights and
	// representatives all survive the round trip.
	st2 := inc2.ExportState()
	if len(st2.Items) != len(st.Items) || st2.Contradictory != st.Contradictory {
		t.Fatalf("re-export shape differs: %d/%d items, %d/%d contradictory",
			len(st2.Items), len(st.Items), st2.Contradictory, st.Contradictory)
	}
	for i := range st.Items {
		a, b := st.Items[i], st2.Items[i]
		if a.SQL != b.SQL || a.Weight != b.Weight || len(a.Users) != len(b.Users) {
			t.Fatalf("item %d differs after round trip: %+v vs %+v", i, a, b)
		}
	}
}

// RestoreState must refuse to run on top of existing state.
func TestIncrementalRestoreGuards(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 5, Stats: seededStats()})
	inc := m.Incremental()
	areaRecs, _ := m.pipeline().Run(synthRecords(50, 5))
	if len(areaRecs) == 0 {
		t.Fatal("no areas extracted")
	}
	inc.Add(&areaRecs[0])
	if err := inc.RestoreState(&State{Items: []ItemState{{SQL: "select 1"}}}, nil); err == nil {
		t.Fatal("RestoreState on non-empty state did not fail")
	}
	if err := m.Incremental().RestoreState(nil, nil); err != nil {
		t.Fatalf("nil state restore: %v", err)
	}
}

// Epoch snapshots share their items' user sets copy-on-write. While one
// Recluster clusters a snapshot, Adds bring a new user to every item; the
// snapshot's sets must stay as they were taken, and the next epoch must
// count the new users — exactly as a batch mine over every record does.
// make traffic-smoke runs this under the race detector.
func TestSnapshotUserSetsCopyOnWrite(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 3, Stats: seededStats()})
	inc := m.Incremental()
	areaRecs, _ := m.pipeline().Run(synthRecords(800, 3))
	for i := range areaRecs {
		inc.Add(&areaRecs[i])
	}
	late := make([]qlog.AreaRecord, len(areaRecs))
	for i, ar := range areaRecs {
		ar.Record.User = fmt.Sprintf("late-%d", i)
		late[i] = ar
	}

	snap, _ := inc.snapshotItems()
	want := make([]map[string]struct{}, len(snap))
	for i, it := range snap {
		want[i] = maps.Clone(it.Users)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range late {
			inc.Add(&late[i])
		}
	}()
	inc.Recluster() // clusters its own snapshot while the Adds run
	for i, it := range snap {
		if len(it.Users) != len(want[i]) {
			t.Fatalf("item %d: snapshot user set grew under concurrent Adds", i)
		}
	}
	wg.Wait()
	for i, it := range snap {
		if !maps.Equal(it.Users, want[i]) {
			t.Fatalf("item %d: snapshot user set changed: %v, taken as %v", i, it.Users, want[i])
		}
	}

	next := inc.Recluster()
	batch := m.MineAreas(append(slices.Clone(areaRecs), late...))
	if len(next.Clusters) == 0 || len(next.Clusters) != len(batch.Clusters) {
		t.Fatalf("next epoch has %d clusters, batch mine %d", len(next.Clusters), len(batch.Clusters))
	}
	for i, c := range next.Clusters {
		b := batch.Clusters[i]
		if c.UserCount != b.UserCount || c.Cardinality != b.Cardinality {
			t.Fatalf("cluster %d: next epoch %d users / %d queries, batch mine %d / %d",
				i, c.UserCount, c.Cardinality, b.UserCount, b.Cardinality)
		}
	}
	seen := make(map[string]bool)
	items, _ := inc.snapshotItems()
	for _, it := range items {
		for u := range it.Users {
			seen[u] = true
		}
	}
	for _, ar := range late {
		if !ar.Area.IsEmpty() && !seen[ar.Record.User] {
			t.Fatalf("user %s added during the epoch is missing from the next one", ar.Record.User)
		}
	}
}
