package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/dbscan"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/schema"
)

// Substrate is the only distance state behind the miners: access areas
// interned by key into one flat SoA kernel, the columns each compiled
// profile reads, and an eps-neighbour graph over the interned slots. A
// batch mine clusters through a fresh one; every Incremental keeps one — a
// private substrate by default, a shared one for the traffic-class miners,
// whose largely overlapping area populations (a bot area and a human area
// with the same CNF are the same point) then pay for each neighbourhood
// once.
//
// Epochs keep their work. Extraction grows access(a) and profiles read it,
// so at each epoch the substrate asks schema.Stats which columns moved since
// the generation it last compiled against and recompiles only the slots
// whose profile reads one of them (Kernel.Set; a recompiled profile with
// unchanged content keeps its slot clean). Every other slot keeps its
// profile, its pivot-table entries and its neighbour list. The graph then
// rescans only new and changed ("dirty") slots — one pivot-pruned scan each,
// evaluating each unordered pair once as Kernel.Distance(min, max), so a
// value never depends on which side asked and an epoch's graph is
// bit-identical to a batch mine's fresh one over the same registry. A
// registry restore, an eps change (AutoEps) or a partition-rule flip marks
// every slot dirty and rebuilds the lists through the same code.
//
// Miners sharing a substrate must recluster sequentially (the serving
// layer's epoch loop is); Adds never touch it. Evals, Hits and Slots are
// safe to call at any time.
type Substrate struct {
	m      *Miner
	stats  *schema.Stats
	metric *distance.Metric

	mu sync.Mutex
	// gen is the registry generation the compiled profiles are current
	// against; it is read before compiling, so a concurrent mutation is
	// caught by the next sync.
	gen  uint64
	kern *distance.Kernel
	// byKey maps an area key to its slot; areas, relKeys and hulls hold
	// each slot's area, relation-set key and aggregate.AreaHulls list — the
	// one hull list every sharing miner summarises that area from.
	byKey   map[string]int
	areas   []*extract.AccessArea
	relKeys []string
	hulls   [][]aggregate.ColumnHull
	// readers maps a column to the slots whose profile reads its access(a).
	readers map[string][]int32
	// maxTables is the largest relation set interned (at least 1), the
	// input to the partition rule.
	maxTables int

	g nbrGraph
	// builds counts graph (re)builds; lastStale and lastDirty describe the
	// latest update that rescanned anything: its changed slots, and those
	// plus the new ones. Tests and diagnostics read them.
	builds, lastStale, lastDirty int

	evals atomic.Int64
	hits  atomic.Int64
}

// nbrGraph is the persistent eps-neighbour graph: for every slot below
// covered, the ascending slots within eps of it (itself excluded), computed
// inside the slot's group — its relation set when the partition rule holds,
// else one group of everything.
type nbrGraph struct {
	built bool
	eps   float64
	split bool
	// covered slots have current lists; slots interned since are new.
	covered int
	nbrs    [][]int32
	// stale marks covered slots whose profile changed since their list was
	// computed.
	stale  []bool
	groups map[string]*nbrGroup
	// pos is each covered slot's index within its group's members.
	pos []int32
	// scanned is the update sequence that last rescanned each slot; an entry
	// between two slots last scanned before an update began was reused, not
	// evaluated, by that update.
	scanned []uint64
	seq     uint64
}

// nbrGroup is one scan group: its member slots (ascending, append-only
// because a slot's relation set never changes) and, when large enough, a
// LAESA pivot index over the group-local indices.
type nbrGroup struct {
	members []int
	ix      *dbscan.PivotIndex
	// builtN is the group size when ix was built; at double that the index
	// is rebuilt to re-spread its pivots.
	builtN int
}

// Substrate builds an empty substrate bound to this Miner's distance mode,
// pivot setting and access(a) registry. Hand it to IncrementalShared on
// every miner that should share distance work.
func (m *Miner) Substrate() *Substrate {
	return &Substrate{
		m:         m,
		stats:     m.stats,
		metric:    &distance.Metric{Mode: m.cfg.Mode, Stats: m.stats},
		kern:      distance.NewKernel(m.cfg.Mode),
		byKey:     make(map[string]int),
		readers:   make(map[string][]int32),
		maxTables: 1,
	}
}

// Slots reports how many distinct areas are interned.
func (s *Substrate) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.areas)
}

// Evals returns the substrate-lifetime kernel evaluations across every
// sharing miner: neighbour scans, pivot rows, the AutoEps sample, and the
// direct distances of OPTICS.
func (s *Substrate) Evals() int64 { return s.evals.Load() }

// Hits returns the substrate-lifetime neighbour-graph entries miners
// clustered with that no scan of their epoch evaluated — pairs whose
// distance an earlier epoch, or an earlier miner of the same epoch,
// already paid for.
func (s *Substrate) Hits() int64 { return s.hits.Load() }

// dist is the direct distance between two slots, oriented (min, max) like
// every other evaluation so values never depend on which side asked.
func (s *Substrate) dist(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	s.evals.Add(1)
	return s.kern.Distance(a, b)
}

// sync brings the compiled profiles up to date with the registry and
// interns the items' areas, returning their slots. Profiles of existing
// slots that read a moved column are recompiled; a registry restore
// recompiles all of them into a fresh kernel (dropping every stale record)
// and invalidates the graph.
func (s *Substrate) sync(items []*aggregate.Item) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cols, all, cur := s.stats.ChangedSince(s.gen)
	s.gen = cur
	switch {
	case all:
		s.kern = distance.NewKernel(s.m.cfg.Mode)
		for _, a := range s.areas {
			s.kern.Add(s.metric.Profile(a))
		}
		s.g.built = false
	case len(cols) > 0:
		done := make(map[int32]bool)
		for _, col := range cols {
			for _, slot := range s.readers[col] {
				if done[slot] {
					continue
				}
				done[slot] = true
				profilesRecompiled.Inc()
				if s.kern.Set(int(slot), s.metric.Profile(s.areas[slot])) && int(slot) < s.g.covered {
					s.g.stale[slot] = true
				}
			}
		}
	}
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = s.intern(it.AreaKey(), it.Area)
	}
	return out
}

// attachHulls sets every item's Hulls to its slot's shared list, so each
// Summarize reads hulls derived once per distinct area instead of
// re-deriving every member's bounds from its CNF.
func (s *Substrate) attachHulls(items []*aggregate.Item, slots []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, it := range items {
		it.Hulls = s.hulls[slots[i]]
	}
}

// intern returns the slot of the area with the given Key(), compiling its
// profile on first sight. Identical areas map to the same slot from every
// sharing miner. The caller holds mu.
func (s *Substrate) intern(key string, a *extract.AccessArea) int {
	if slot, ok := s.byKey[key]; ok {
		return slot
	}
	slot := s.kern.Add(s.metric.Profile(a))
	s.byKey[key] = slot
	s.areas = append(s.areas, a)
	s.relKeys = append(s.relKeys, extract.RelationSetKey(a.Relations))
	s.hulls = append(s.hulls, aggregate.AreaHulls(a))
	if len(a.Relations) > s.maxTables {
		s.maxTables = len(a.Relations)
	}
	for _, col := range distance.ReadColumns(a) {
		s.readers[col] = append(s.readers[col], int32(slot))
	}
	return slot
}

// neighbours brings the eps-neighbour graph up to date for every interned
// slot and returns the graph together with the update sequence it started
// from: a list entry between two slots whose scanned mark is at most that
// sequence was reused rather than evaluated.
func (s *Substrate) neighbours(eps float64) (*nbrGraph, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &s.g
	before := g.seq
	split := eps < 1.0/float64(s.maxTables+1)
	if !g.built || g.eps != eps || g.split != split {
		if g.covered > 0 {
			graphRebuilds.Inc()
		}
		s.builds++
		*g = nbrGraph{built: true, eps: eps, split: split, groups: make(map[string]*nbrGroup), seq: g.seq}
	}
	n := len(s.areas)
	var dirty []int
	for slot := 0; slot < g.covered; slot++ {
		if g.stale[slot] {
			dirty = append(dirty, slot)
		}
	}
	for slot := g.covered; slot < n; slot++ {
		dirty = append(dirty, slot)
	}
	if len(dirty) == 0 {
		return g, before
	}
	s.lastStale, s.lastDirty = len(dirty)-(n-g.covered), len(dirty)
	graphDirtySlots.Add(int64(len(dirty)))
	isDirty := make([]bool, n)
	for _, slot := range dirty {
		isDirty[slot] = true
	}

	// Admit the new slots to their groups, then bring each touched group's
	// pivot index up to date: rows re-evaluated at stale members, extended
	// over new ones, rebuilt once the group has doubled.
	touched := make(map[*nbrGroup][]int) // group → stale members' local indices
	for slot := g.covered; slot < n; slot++ {
		grp := g.group(s.groupKey(slot))
		g.pos = append(g.pos, int32(len(grp.members)))
		grp.members = append(grp.members, slot)
		g.nbrs = append(g.nbrs, nil)
		g.stale = append(g.stale, false)
		g.scanned = append(g.scanned, 0)
		if _, ok := touched[grp]; !ok {
			touched[grp] = nil
		}
	}
	for _, slot := range dirty {
		if slot < g.covered {
			grp := g.groups[s.groupKey(slot)]
			touched[grp] = append(touched[grp], int(g.pos[slot]))
		}
	}
	workers := resolveWorkers(s.m.cfg.Workers)
	for grp, staleLocal := range touched {
		gdist := s.groupDist(grp)
		switch {
		case !s.m.usePivots(len(grp.members)):
			grp.ix = nil
		case grp.ix == nil || len(grp.members) >= 2*grp.builtN:
			grp.ix = dbscan.NewPivotIndexParallel(len(grp.members), gdist, pivotCount, workers)
			grp.builtN = len(grp.members)
		default:
			grp.ix.Refresh(staleLocal, gdist)
			grp.ix.Extend(len(grp.members), gdist)
		}
		if grp.ix != nil {
			grp.ix.Slack = dbscan.PivotSlackFactor * eps
		}
	}

	// One scan per dirty slot. A dirty candidate below the scanned slot is
	// skipped: its own scan already evaluated the pair.
	found := make([][]int32, len(dirty))
	scan := func(k int) {
		q := dirty[k]
		grp := g.groups[s.groupKey(q)]
		qi := int(g.pos[q])
		keep := func(j int) bool { return j > qi || !isDirty[grp.members[j]] }
		var local []int
		if grp.ix != nil {
			local = grp.ix.RegionFiltered(qi, eps, len(grp.members), keep)
		} else {
			for j, slot := range grp.members {
				if j == qi || (keep(j) && s.dist(q, slot) <= eps) {
					local = append(local, j)
				}
			}
		}
		out := make([]int32, 0, len(local))
		for _, j := range local {
			if j != qi {
				out = append(out, int32(grp.members[j]))
			}
		}
		found[k] = out
	}
	parallelFor(len(dirty), workers, scan)

	// Drop dirty slots from clean lists, then merge every found pair into
	// both endpoints' lists.
	for _, d := range dirty {
		if d >= g.covered {
			continue
		}
		for _, c := range g.nbrs[d] {
			if !isDirty[c] {
				g.nbrs[c] = dropDirty(g.nbrs[c], isDirty)
			}
		}
	}
	extra := make(map[int32][]int32) // slot → dirty neighbours found by others' scans (ascending)
	for k, q := range dirty {
		for _, t := range found[k] {
			extra[t] = append(extra[t], int32(q))
		}
	}
	for k, q := range dirty {
		g.nbrs[q] = mergeAscending(found[k], extra[int32(q)])
		delete(extra, int32(q))
		g.stale[q] = false
		g.scanned[q] = before + 1
	}
	for c, add := range extra {
		g.nbrs[c] = mergeAscending(g.nbrs[c], add)
	}
	g.covered = n
	g.seq = before + 1
	return g, before
}

// pivotCount is the LAESA pivot count of every group index, and
// pivotMinPartition the group size under which building one costs more
// than the brute-force scans it would save.
const (
	pivotCount        = 8
	pivotMinPartition = 64
)

// usePivots reports whether a scan group of size n gets a pivot index:
// ModeEndpoint is near-metric (its triangle defect is covered by the
// dbscan.PivotSlackFactor margin), while the paper-literal mode's
// similarity-like d_pred gives the pruning nothing to hold on to.
func (m *Miner) usePivots(n int) bool {
	return !m.cfg.DisablePivotIndex &&
		m.cfg.Mode == distance.ModeEndpoint &&
		n >= pivotMinPartition
}

// group returns (creating) the scan group for a key.
func (g *nbrGraph) group(key string) *nbrGroup {
	grp := g.groups[key]
	if grp == nil {
		grp = &nbrGroup{}
		g.groups[key] = grp
	}
	return grp
}

// groupKey is a slot's scan group: its relation set when the graph is split,
// else the single "" group — the grouping partitionItems applies.
func (s *Substrate) groupKey(slot int) string {
	if s.g.split {
		return s.relKeys[slot]
	}
	return ""
}

// groupDist is the distance in a group's local index space. It reads the
// member list at call time, so it stays valid as the group grows.
func (s *Substrate) groupDist(grp *nbrGroup) func(i, j int) float64 {
	return func(i, j int) float64 { return s.dist(grp.members[i], grp.members[j]) }
}

// dropDirty removes dirty slots from an ascending list, in place.
func dropDirty(list []int32, isDirty []bool) []int32 {
	out := list[:0]
	for _, v := range list {
		if !isDirty[v] {
			out = append(out, v)
		}
	}
	return out
}

// mergeAscending merges two ascending, disjoint slot lists into a new one.
func mergeAscending(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// parallelFor runs fn(0..n-1) on up to workers goroutines.
func parallelFor(n, workers int, fn func(k int)) {
	if workers <= 1 || n < 64 {
		for k := 0; k < n; k++ {
			fn(k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n; k = int(next.Add(1) - 1) {
				fn(k)
			}
		}()
	}
	wg.Wait()
}

// mapRegion is the DBSCAN region source for one partition of one miner:
// local index i's neighbourhood is its slot's graph list restricted to the
// partition, mapped into partition-local indices, with i itself inserted.
// local maps slot → partition index (-1 outside it). Lists come out
// ascending; a shared substrate's slot order can differ from a miner's
// item order, so they are sorted when it does. The returned slice is reused
// by the next call, as dbscan.ClusterGraph allows.
type mapRegion struct {
	g       *nbrGraph
	before  uint64
	slotsOf []int // partition index → slot
	local   []int32
	reused  int64
	buf     []int
}

func newMapRegion(g *nbrGraph, before uint64) *mapRegion {
	local := make([]int32, len(g.nbrs))
	for i := range local {
		local[i] = -1
	}
	return &mapRegion{g: g, before: before, local: local}
}

// cluster runs DBSCAN over one partition, given as its members' slots.
func (r *mapRegion) cluster(slots []int, cfg dbscan.Config) *dbscan.Result {
	r.slotsOf = slots
	for i, slot := range slots {
		r.local[slot] = int32(i)
	}
	res := dbscan.ClusterGraph(len(slots), r.region, cfg)
	for _, slot := range slots {
		r.local[slot] = -1
	}
	return res
}

func (r *mapRegion) region(i int) []int {
	s := r.slotsOf[i]
	list := r.g.nbrs[s]
	out := r.buf[:0]
	self := false
	fresh := r.g.scanned[s] > r.before
	for _, t := range list {
		if !self && int(t) > s {
			out = append(out, i)
			self = true
		}
		if li := r.local[t]; li >= 0 {
			out = append(out, int(li))
			if !fresh && r.g.scanned[t] <= r.before {
				r.reused++
			}
		}
	}
	if !self {
		out = append(out, i)
	}
	if !sort.IntsAreSorted(out) {
		sort.Ints(out)
	}
	r.buf = out
	return out
}

// resolveWorkers maps a Workers setting to a goroutine count (0 = one per
// processor, like dbscan's own resolution).
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}
