package core

import (
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/skyserver"
)

// The work a run of TestNeighbourGraphMatchesBrute does on its shared
// substrate: kernel evaluations, graph entries reused and the total
// neighbour-list length at the end, the same at every worker count. They
// pin the pairs a graph update evaluates, so a change to the scans must
// leave them, and with them perfbench's distance.evals and
// distance.cache_hits rows, as they are.
const (
	oracleEvals   = 419156
	oracleHits    = 1965870
	oracleEntries = 613828
)

// TestNeighbourGraphMatchesBrute replays a log in 375-record epochs whose
// extraction moves access(a) between them, so slots go stale, through a
// substrate shared by a global and three class miners, at one and at four
// workers (make racecheck runs the latter's per-worker scan buffers under
// the race detector). After every epoch each slot's list must equal the
// brute-force set {t in its group, t ≠ s, Kernel.Distance(min, max) ≤ eps},
// strictly ascending, and no two lists may share backing storage: an
// in-place merge must never write into another list's array.
func TestNeighbourGraphMatchesBrute(t *testing.T) {
	recs := synthRecords(3000, 7)
	type run struct {
		m       *Miner
		sub     *Substrate
		miners  []*Incremental
		partial int
	}
	var runs []*run
	for _, workers := range []int{1, 4} {
		m := NewMiner(Config{Schema: skyserver.Schema(), Seed: 7, Stats: seededStats(), Workers: workers})
		r := &run{m: m, sub: m.Substrate()}
		for i := 0; i < 4; i++ {
			r.miners = append(r.miners, m.IncrementalShared(r.sub))
		}
		runs = append(runs, r)
	}
	const chunk = 375
	for lo, epoch := 0, 0; lo < len(recs); lo, epoch = lo+chunk, epoch+1 {
		hi := min(lo+chunk, len(recs))
		for _, r := range runs {
			areaRecs, _ := r.m.pipeline().Run(recs[lo:hi])
			for i := range areaRecs {
				ar := &areaRecs[i]
				r.miners[0].Add(ar)
				r.miners[1+int(ar.Record.Seq%3)].Add(ar)
			}
			for _, inc := range r.miners {
				seq := r.sub.g.seq
				inc.Recluster()
				if r.sub.g.seq != seq && r.sub.lastStale > 0 {
					r.partial++
				}
			}
		}
		checkGraphBrute(t, epoch, runs[0].sub)
		for _, r := range runs[1:] {
			if !reflect.DeepEqual(r.sub.g.nbrs, runs[0].sub.g.nbrs) {
				t.Fatalf("epoch %d: graph at %d workers differs from 1 worker", epoch, r.m.cfg.Workers)
			}
			checkGraphStorage(t, epoch, r.sub)
		}
	}
	for _, r := range runs {
		entries := 0
		for _, list := range r.sub.g.nbrs {
			entries += len(list)
		}
		t.Logf("workers %d: %d slots, %d evals, %d hits, %d list entries, %d updates with stale slots",
			r.m.cfg.Workers, r.sub.Slots(), r.sub.Evals(), r.sub.Hits(), entries, r.partial)
		if r.partial == 0 {
			t.Errorf("workers %d: no update rescanned a stale slot", r.m.cfg.Workers)
		}
		if r.sub.Evals() != oracleEvals || r.sub.Hits() != oracleHits || entries != oracleEntries {
			t.Errorf("workers %d: %d evals, %d hits, %d list entries; want %d, %d, %d",
				r.m.cfg.Workers, r.sub.Evals(), r.sub.Hits(), entries, oracleEvals, oracleHits, oracleEntries)
		}
	}
}

// checkGraphBrute compares every slot's list with a brute-force scan of its
// group over the kernel, and checks the lists' storage.
func checkGraphBrute(t *testing.T, epoch int, s *Substrate) {
	t.Helper()
	g := &s.g
	n := len(s.areas)
	if g.covered != n || len(g.nbrs) != n {
		t.Fatalf("epoch %d: graph covers %d of %d slots (%d lists)", epoch, g.covered, n, len(g.nbrs))
	}
	groups := make(map[string][]int)
	for slot := 0; slot < n; slot++ {
		key := s.groupKey(slot)
		groups[key] = append(groups[key], slot)
	}
	want := make([][]int32, n)
	for _, members := range groups {
		for x, a := range members {
			for _, b := range members[x+1:] {
				if s.kern.Distance(a, b) <= g.eps {
					want[a] = append(want[a], int32(b))
					want[b] = append(want[b], int32(a))
				}
			}
		}
	}
	for slot := 0; slot < n; slot++ {
		sort.Slice(want[slot], func(i, j int) bool { return want[slot][i] < want[slot][j] })
		got := g.nbrs[slot]
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("epoch %d: slot %d list not strictly ascending: %v", epoch, slot, got)
			}
		}
		if len(got) != len(want[slot]) || (len(got) > 0 && !reflect.DeepEqual(got, want[slot])) {
			t.Fatalf("epoch %d: slot %d list %v, brute force %v", epoch, slot, got, want[slot])
		}
	}
	checkGraphStorage(t, epoch, s)
}

// checkGraphStorage fails when two lists' arrays overlap anywhere up to
// their capacity.
func checkGraphStorage(t *testing.T, epoch int, s *Substrate) {
	t.Helper()
	type extent struct {
		slot   int
		lo, hi uintptr
	}
	var ext []extent
	for slot, list := range s.g.nbrs {
		if cap(list) == 0 {
			continue
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(list)))
		ext = append(ext, extent{slot, lo, lo + uintptr(cap(list))*unsafe.Sizeof(list[0])})
	}
	sort.Slice(ext, func(i, j int) bool { return ext[i].lo < ext[j].lo })
	for i := 1; i < len(ext); i++ {
		if ext[i].lo < ext[i-1].hi {
			t.Fatalf("epoch %d: slots %d and %d share list storage", epoch, ext[i-1].slot, ext[i].slot)
		}
	}
}
