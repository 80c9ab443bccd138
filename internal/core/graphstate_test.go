package core

import (
	"reflect"
	"testing"

	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/skyserver"
)

// persisted is what a snapshot carries for one substrate: the registry, the
// global and class miners' states and the global miner's graph export.
type persisted struct {
	stats   *schema.StatsSnapshot
	global  *State
	classes [3]*State
	graph   *GraphState
	nbrs    [][]int32 // the exporting substrate's lists
}

// mineAndPersist mines recs through a global miner and three class miners
// (Seq mod 3) on one substrate, reclustering the classes first so their
// areas are interned before the global miner's and slot order differs from
// item order, and exports the lot.
func mineAndPersist(t *testing.T, recs []qlog.Record) persisted {
	t.Helper()
	m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 13, Stats: seededStats()})
	sub := m.Substrate()
	global := m.IncrementalShared(sub)
	var classes [3]*Incremental
	for c := range classes {
		classes[c] = m.IncrementalShared(sub)
	}
	areaRecs, _ := m.pipeline().Run(recs)
	for i := range areaRecs {
		global.Add(&areaRecs[i])
		classes[areaRecs[i].Record.Seq%3].Add(&areaRecs[i])
	}
	for _, c := range classes {
		c.Recluster()
	}
	global.Recluster()
	p := persisted{stats: m.Stats().Snapshot(), global: global.ExportState(), graph: global.ExportGraph(), nbrs: sub.g.nbrs}
	for c := range classes {
		p.classes[c] = classes[c].ExportState()
	}
	if p.graph == nil {
		t.Fatal("no graph exported after a DBSCAN epoch")
	}
	reordered := 0
	for _, d := range p.graph.Items {
		if d != 0 {
			reordered++
		}
	}
	if reordered == 0 {
		t.Fatal("class-first interning left slot order equal to item order")
	}
	return p
}

// restarted is a miner set rebuilt from a persisted state with a log tail
// fed after the restore, as a server restart with a WAL tail does.
type restarted struct {
	m       *Miner
	since   uint64
	global  *Incremental
	classes [3]*Incremental
}

func restart(t *testing.T, p persisted, tail []qlog.Record) *restarted {
	t.Helper()
	stats := schema.NewStats()
	stats.RestoreSnapshot(p.stats)
	r := &restarted{m: NewMiner(Config{Schema: skyserver.Schema(), Seed: 13, Stats: stats}), since: stats.Generation()}
	sub := r.m.Substrate()
	pipe := r.m.pipeline()
	r.global = r.m.IncrementalShared(sub)
	if err := r.global.RestoreState(p.global, pipe); err != nil {
		t.Fatal(err)
	}
	for c := range r.classes {
		r.classes[c] = r.m.IncrementalShared(sub)
		if err := r.classes[c].RestoreState(p.classes[c], pipe); err != nil {
			t.Fatal(err)
		}
	}
	areaRecs, _ := pipe.Run(tail)
	for i := range areaRecs {
		r.global.Add(&areaRecs[i])
		r.classes[areaRecs[i].Record.Seq%3].Add(&areaRecs[i])
	}
	return r
}

// recluster runs one epoch, global miner first as the server does, and
// returns the global result, the class results and the kernel evaluations
// the epoch cost.
func (r *restarted) recluster() (*Result, [3]*Result, int64) {
	before := r.global.sub.Evals()
	res := r.global.Recluster()
	var cls [3]*Result
	for c := range r.classes {
		cls[c] = r.classes[c].Recluster()
	}
	return res, cls, r.global.sub.Evals() - before
}

// A restart that installs the persisted graph must cluster exactly like one
// that rebuilds it — global and every class miner, with a tail that moved
// access(a) — and like a batch mine, while evaluating fewer distances. A
// perturbed digest falls back to the rebuild with the same result.
func TestInstallGraphMatchesRebuild(t *testing.T) {
	recs := synthRecords(2400, 13)
	head, tail := recs[:1200], recs[1200:]
	p := mineAndPersist(t, head)

	rebuilt := restart(t, p, tail)
	if cols, all, _ := rebuilt.m.Stats().ChangedSince(rebuilt.since); all || len(cols) == 0 {
		t.Fatalf("the tail moved no access(a) column (all=%v)", all)
	}
	wantRes, wantCls, freshEvals := rebuilt.recluster()
	sameMining(t, NewMiner(Config{Schema: skyserver.Schema(), Seed: 13, Stats: seededStats()}).MineRecords(recs), wantRes)

	installed := restart(t, p, tail)
	n, fallback := installed.global.InstallGraph(p.graph, installed.since)
	if fallback != "" || n != len(p.graph.Items) {
		t.Fatalf("install: %d slots, fallback %q; want %d, none", n, fallback, len(p.graph.Items))
	}
	sub := installed.global.sub
	if sub.g.covered != n || sub.builds != 0 {
		t.Fatalf("after install: %d covered, %d builds", sub.g.covered, sub.builds)
	}
	res, cls, evals := installed.recluster()
	sameMining(t, wantRes, res)
	for c := range cls {
		sameMining(t, wantCls[c], cls[c])
	}
	t.Logf("anchoring epoch: %d evals with the graph installed (%d changed + %d new slots rescanned), %d rebuilding",
		evals, sub.lastStale, sub.lastDirty-sub.lastStale, freshEvals)
	if sub.lastStale == 0 || sub.lastDirty >= sub.Slots() {
		t.Errorf("install rescanned %d changed + %d new of %d slots: want a strict subset with changed slots",
			sub.lastStale, sub.lastDirty-sub.lastStale, sub.Slots())
	}
	if evals >= freshEvals {
		t.Errorf("installed graph cost %d evals, a rebuild %d", evals, freshEvals)
	}

	bad := *p.graph
	bad.Digest = append([]byte(nil), p.graph.Digest...)
	bad.Digest[0] ^= 1
	perturbed := restart(t, p, tail)
	if n, fallback := perturbed.global.InstallGraph(&bad, perturbed.since); fallback != FallbackDigest || n != 0 {
		t.Fatalf("perturbed digest: %d slots, fallback %q", n, fallback)
	}
	res, _, _ = perturbed.recluster()
	sameMining(t, wantRes, res)
}

// Every malformed or mismatched section is refused with its reason and
// leaves the substrate untouched; the intact section then installs.
func TestInstallGraphRejects(t *testing.T) {
	recs := synthRecords(800, 17)
	p := mineAndPersist(t, recs)
	r := restart(t, p, nil)
	g := p.graph
	n := len(g.Items)
	// slot is the first with two neighbours or more above it; first indexes
	// its list.
	slot := 0
	for g.Offsets[slot+1]-g.Offsets[slot] < 2 {
		slot++
	}
	first := g.Offsets[slot]
	cases := []struct {
		name   string
		mutate func(gs *GraphState)
		want   string
	}{
		{"no slots", func(gs *GraphState) { gs.Items, gs.Offsets = nil, []uint32{0} }, FallbackBounds},
		{"more slots than items", func(gs *GraphState) { gs.Items = append(gs.Items, 0) }, FallbackBounds},
		{"offsets short", func(gs *GraphState) { gs.Offsets = gs.Offsets[:n] }, FallbackBounds},
		{"offsets decrease", func(gs *GraphState) { gs.Offsets[slot+1] = first - 1 }, FallbackBounds},
		{"offset past the lists", func(gs *GraphState) { gs.Offsets[1] = uint32(len(gs.Nbrs) + 1) }, FallbackBounds},
		{"last offset short", func(gs *GraphState) { gs.Offsets[n]-- }, FallbackBounds},
		{"neighbour out of range", func(gs *GraphState) { gs.Nbrs[first] = uint32(n) }, FallbackBounds},
		{"neighbour is self", func(gs *GraphState) { gs.Nbrs[first] = 0 }, FallbackBounds},
		{"repeated neighbour", func(gs *GraphState) { gs.Nbrs[first+1] = 0 }, FallbackBounds},
		{"item out of range", func(gs *GraphState) { gs.Items[n-1] = int32(n) }, FallbackBounds},
		{"item repeated", func(gs *GraphState) { gs.Items[1] = gs.Items[0] - 1 }, FallbackBounds},
		{"stale out of range", func(gs *GraphState) { gs.Stale = append(gs.Stale, uint32(n)) }, FallbackBounds},
		{"short digest", func(gs *GraphState) { gs.Digest = gs.Digest[:8] }, FallbackBounds},
		{"digest", func(gs *GraphState) { gs.Digest[31] ^= 0x80 }, FallbackDigest},
		{"eps", func(gs *GraphState) { gs.Eps *= 2 }, FallbackEps},
		{"split", func(gs *GraphState) { gs.Split = !gs.Split }, FallbackSplit},
	}
	for _, tc := range cases {
		gs := &GraphState{
			Eps: g.Eps, Split: g.Split,
			Items:   append([]int32(nil), g.Items...),
			Digest:  append([]byte(nil), g.Digest...),
			Offsets: append([]uint32(nil), g.Offsets...),
			Nbrs:    append([]uint32(nil), g.Nbrs...),
			Stale:   append([]uint32(nil), g.Stale...),
		}
		tc.mutate(gs)
		if got, fallback := r.global.InstallGraph(gs, r.since); fallback != tc.want || got != 0 {
			t.Errorf("%s: installed %d, fallback %q; want %q", tc.name, got, fallback, tc.want)
		}
		if r.global.sub.Slots() != 0 || r.global.sub.g.built {
			t.Fatalf("%s: a refused install touched the substrate", tc.name)
		}
	}
	if got, fallback := r.global.InstallGraph(g, r.since); fallback != "" || got != n {
		t.Fatalf("intact section: installed %d, fallback %q", got, fallback)
	}
	if !reflect.DeepEqual(r.global.sub.g.nbrs, p.nbrs) {
		t.Fatal("installed neighbour lists differ from the exported ones")
	}
	if _, fallback := r.global.InstallGraph(g, r.since); fallback != FallbackBounds {
		t.Fatalf("second install on a populated substrate: fallback %q", fallback)
	}
}
