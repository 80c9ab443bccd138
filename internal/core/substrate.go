package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/aggregate"
	"repro/internal/dbscan"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/par"
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
// registry restore, an eps change or a partition-rule flip marks
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

	// reg is the clustering scratch every sharing miner reuses; they
	// recluster sequentially, so one copy serves them all.
	reg regionScratch

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
	// dirty is the scan skip mask while an update runs: its dirty members
	// by local index. Nil between updates.
	dirty []bool
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
// sharing miner: neighbour scans and pivot rows.
func (s *Substrate) Evals() int64 { return s.evals.Load() }

// Hits returns the substrate-lifetime neighbour-graph entries miners
// clustered with that no scan of their epoch evaluated — pairs whose
// distance an earlier epoch, or an earlier miner of the same epoch,
// already paid for.
func (s *Substrate) Hits() int64 { return s.hits.Load() }

// pair is the distance between two slots, oriented (min, max) like every
// other evaluation so values never depend on which side asked. It counts
// nothing: the neighbour graph's scans and pivot tables report their own
// evaluations.
func (s *Substrate) pair(a, b int) float64 {
	if a == b {
		return 0
	}
	if a > b {
		a, b = b, a
	}
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
//
// Each dirty slot gets one scan against its group, either pivot-pruned
// (PivotIndex.AppendRegion) or brute force, skipping dirty members below it
// so every unordered pair is evaluated once. Scans run on par.ForWorker and
// append into their worker's arena, counting their evaluations into evals
// once each. Each dirty slot's list is then allocated at its exact size and
// filled from its scan plus the dirty slots below it that found it (a
// slot-indexed reverse index); clean lists drop their dirty entries and
// merge the found ones in place, growing only when their capacity runs out.
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

	// Admit the new slots to their groups, mark every dirty member in its
	// group's skip mask, then bring each touched group's pivot index up to
	// date: entries re-evaluated at stale members, extended over new ones,
	// rebuilt once the group has doubled.
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
	workers := par.Workers(s.m.cfg.Workers)
	for grp, staleLocal := range touched {
		grp.dirty = make([]bool, len(grp.members))
		gdist := s.groupDist(grp)
		var prior int64
		switch {
		case !s.m.usePivots(len(grp.members)):
			grp.ix = nil
		case grp.ix == nil || len(grp.members) >= 2*grp.builtN:
			grp.ix = dbscan.NewPivotIndexParallel(len(grp.members), gdist, pivotCount, workers)
			grp.builtN = len(grp.members)
		default:
			prior = grp.ix.TableEvals()
			grp.ix.Refresh(staleLocal, gdist)
			grp.ix.Extend(len(grp.members), gdist)
		}
		if grp.ix != nil {
			grp.ix.Slack = dbscan.PivotSlackFactor * eps
			s.evals.Add(grp.ix.TableEvals() - prior)
		}
	}
	for _, slot := range dirty {
		g.groups[s.groupKey(slot)].dirty[g.pos[slot]] = true
	}

	// One scan per dirty slot, appended to the arena of the worker that ran
	// it; spans[k] locates scan k's group-local hits there. Each arena is
	// sized up front to its share of the expected hits (scanHint), so the
	// scans of a restart's anchoring epoch do not grow it by doubling.
	arenas := make([][]int32, workers)
	arenaCap := scanHint(g, dirty)/min(workers, len(dirty)) + 1
	spans := make([]scanSpan, len(dirty))
	par.ForWorker(len(dirty), workers, func(w, k int) {
		q := dirty[k]
		grp := g.groups[s.groupKey(q)]
		if arenas[w] == nil {
			arenas[w] = make([]int32, 0, arenaCap)
		}
		lo := len(arenas[w])
		var evals int
		arenas[w], evals = s.scan(arenas[w], grp, int(g.pos[q]), eps)
		s.evals.Add(int64(evals))
		spans[k] = scanSpan{w: int32(w), lo: int32(lo), hi: int32(len(arenas[w]))}
	})
	found := func(k int) (local []int32, grp *nbrGroup, qi int32) {
		q := dirty[k]
		sp := spans[k]
		return arenas[sp.w][sp.lo:sp.hi], g.groups[s.groupKey(q)], g.pos[q]
	}

	// Drop dirty slots from clean lists.
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
	// The reverse index: for every slot, the dirty slots whose scan found
	// it, ascending because dirty is.
	start := make([]int32, n+1)
	for k := range dirty {
		local, grp, qi := found(k)
		for _, j := range local {
			if j != qi {
				start[grp.members[j]+1]++
			}
		}
	}
	for t := 0; t < n; t++ {
		start[t+1] += start[t]
	}
	rev := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for k, q := range dirty {
		local, grp, qi := found(k)
		for _, j := range local {
			if j != qi {
				t := grp.members[j]
				rev[fill[t]] = int32(q)
				fill[t]++
			}
		}
	}
	extra := func(t int) []int32 { return rev[start[t]:start[t+1]] }

	// Each dirty slot's list: its own scan's hits, then the dirty slots
	// below it that found it merged in, at exact size.
	for k, q := range dirty {
		local, grp, qi := found(k)
		var list []int32
		if size := len(local) - 1 + len(extra(q)); size > 0 {
			list = make([]int32, 0, size)
			for _, j := range local {
				if j != qi {
					list = append(list, int32(grp.members[j]))
				}
			}
		}
		g.nbrs[q] = mergeInto(list, extra(q))
		g.stale[q] = false
		g.scanned[q] = before + 1
	}
	for t := 0; t < n; t++ {
		if !isDirty[t] {
			g.nbrs[t] = mergeInto(g.nbrs[t], extra(t))
		}
	}
	for grp := range touched {
		grp.dirty = nil
	}
	g.covered = n
	g.seq = before + 1
	return g, before
}

// scanSpan locates one scan's hits in its worker's arena.
type scanSpan struct{ w, lo, hi int32 }

// scanHint estimates the hits the scans of dirty will append, the scanned
// slot itself included: a covered slot's scan finds about its current list
// (on a restart, the installed graph's), a new slot's about the mean list
// of the covered slots.
func scanHint(g *nbrGraph, dirty []int) int {
	entries := 0
	for slot := 0; slot < g.covered; slot++ {
		entries += len(g.nbrs[slot])
	}
	mean := 0
	if g.covered > 0 {
		mean = entries / g.covered
	}
	hint := 0
	for _, slot := range dirty {
		if slot < g.covered {
			hint += len(g.nbrs[slot]) + 1
		} else {
			hint += mean + 1
		}
	}
	return hint
}

// scan appends to buf the group-local indices within eps of member qi (qi
// itself included), skipping dirty members below it, and returns buf with
// the number of distances evaluated: pivot-pruned when the group has an
// index, otherwise against every candidate.
func (s *Substrate) scan(buf []int32, grp *nbrGroup, qi int, eps float64) ([]int32, int) {
	if grp.ix != nil {
		return grp.ix.AppendRegion(buf, qi, eps, grp.dirty)
	}
	q, evals := grp.members[qi], 0
	for j, slot := range grp.members {
		switch {
		case j == qi:
			buf = append(buf, int32(j))
		case j < qi && grp.dirty[j]:
		default:
			evals++
			if s.pair(q, slot) <= eps {
				buf = append(buf, int32(j))
			}
		}
	}
	return buf, evals
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
	return m.cfg.Mode == distance.ModeEndpoint && n >= pivotMinPartition
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

// groupDist is the uncounted distance in a group's local index space. It
// reads the member list at call time, so it stays valid as the group grows.
func (s *Substrate) groupDist(grp *nbrGroup) func(i, j int) float64 {
	return func(i, j int) float64 { return s.pair(grp.members[i], grp.members[j]) }
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

// mergeInto merges the ascending slots of add, disjoint from list's, into
// the ascending list. It works from the back inside list's own array when
// the capacity allows, and otherwise moves list into a new array of exactly
// the merged size; it never writes past cap(list), so lists with separate
// arrays stay separate.
func mergeInto(list, add []int32) []int32 {
	if len(add) == 0 {
		return list
	}
	i, size := len(list)-1, len(list)+len(add)
	if cap(list) < size {
		list = append(make([]int32, 0, size), list...)
	}
	list = list[:size]
	for j, w := len(add)-1, size-1; j >= 0; w-- {
		if i >= 0 && list[i] > add[j] {
			list[w] = list[i]
			i--
		} else {
			list[w] = add[j]
			j--
		}
	}
	return list
}

// mapRegion is the DBSCAN region source for the partitions of one miner's
// epoch: local index i's neighbourhood is its slot's graph list restricted
// to the partition, mapped into partition-local indices, with i itself
// inserted, in ascending order.
//
// A partition whose slots ascend — every partition of a batch mine, and of
// the miner that interns each area first — keeps a list's order under the
// mapping, so region maps each list as DBSCAN asks for it. A class miner on
// a shared substrate holds its items in its own first-occurrence order, so
// its partitions' slots need not ascend and a mapped list would come out
// scrambled. Such a partition is transposed once instead (transpose): every
// source, in ascending local index, appends itself to the run of each
// partition neighbour and of itself. The graph is symmetric, so each run
// then holds exactly its point's neighbourhood, ascending, with no sort.
// Both paths count the reused entries of every list they map.
//
// The slot → partition-index map and the transposed CSR are the
// substrate's regionScratch, reused across partitions, miners and epochs;
// trim drops a CSR far larger than a miner's partitions needed.
type mapRegion struct {
	g       *nbrGraph
	before  uint64
	sc      *regionScratch
	slotsOf []int // partition index → slot
	reused  int64
	// peak is the largest CSR this miner's partitions needed.
	peak int
}

// regionScratch backs mapRegion. local maps slot → partition index (-1
// outside the partition being clustered, and between partitions); buf is
// the one region handed to DBSCAN; run i of the transposed CSR is
// adj[start[i]:start[i+1]], filled through fill.
type regionScratch struct {
	local            []int32
	buf              []int
	start, adj, fill []int32
}

func (s *Substrate) mapRegion(g *nbrGraph, before uint64) *mapRegion {
	sc := &s.reg
	for len(sc.local) < len(g.nbrs) {
		sc.local = append(sc.local, -1)
	}
	return &mapRegion{g: g, before: before, sc: sc}
}

// trim ends a miner's use of the scratch. A CSR over four times the size
// its partitions needed is dropped, so one large class partition does not
// pin its peak memory until the next epoch.
func (r *mapRegion) trim() {
	if cap(r.sc.adj) > 4*r.peak {
		r.sc.adj = nil
	}
}

// resize returns buf with length n, reallocating only when its capacity is
// short. The contents are not cleared.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// cluster runs DBSCAN over one partition, given as its members' slots.
func (r *mapRegion) cluster(slots []int, cfg dbscan.Config) *dbscan.Result {
	r.slotsOf = slots
	local := r.sc.local
	for i, slot := range slots {
		local[slot] = int32(i)
	}
	var res *dbscan.Result
	if slices.IsSorted(slots) {
		res = dbscan.ClusterGraph(len(slots), r.region, cfg)
	} else {
		r.transpose()
		res = dbscan.ClusterGraph(len(slots), r.run, cfg)
	}
	for _, slot := range slots {
		local[slot] = -1
	}
	return res
}

// reuse counts a list's entry t as reused when neither the list's slot
// (fresh reports whether it was) nor t was rescanned by the update the
// graph came from.
func (r *mapRegion) reuse(fresh bool, t int32) {
	if !fresh && r.g.scanned[t] <= r.before {
		r.reused++
	}
}

// region maps slot order to local order, for a partition whose slots
// ascend.
func (r *mapRegion) region(i int) []int {
	s := r.slotsOf[i]
	out := r.sc.buf[:0]
	self := false
	fresh := r.g.scanned[s] > r.before
	for _, t := range r.g.nbrs[s] {
		if !self && int(t) > s {
			out = append(out, i)
			self = true
		}
		if li := r.sc.local[t]; li >= 0 {
			out = append(out, int(li))
			r.reuse(fresh, t)
		}
	}
	if !self {
		out = append(out, i)
	}
	r.sc.buf = out
	return out
}

// transpose builds the partition's neighbourhoods as a CSR: a first pass
// sizes each run (its point's partition neighbours plus itself), a second
// visits the sources in ascending local index and appends each one to its
// own run and its neighbours' runs.
func (r *mapRegion) transpose() {
	sc, n := r.sc, len(r.slotsOf)
	start := resize(sc.start, n+1)
	start[0] = 0
	for i, s := range r.slotsOf {
		deg := int32(1)
		for _, t := range r.g.nbrs[s] {
			if sc.local[t] >= 0 {
				deg++
			}
		}
		start[i+1] = start[i] + deg
	}
	adj := resize(sc.adj, int(start[n]))
	fill := resize(sc.fill, n)
	copy(fill, start[:n])
	for i, s := range r.slotsOf {
		adj[fill[i]] = int32(i)
		fill[i]++
		fresh := r.g.scanned[s] > r.before
		for _, t := range r.g.nbrs[s] {
			if li := sc.local[t]; li >= 0 {
				adj[fill[li]] = int32(i)
				fill[li]++
				r.reuse(fresh, t)
			}
		}
	}
	sc.start, sc.adj, sc.fill = start, adj, fill
	r.peak = max(r.peak, len(adj))
}

// run is the transposed path's region source: run i, widened into buf.
func (r *mapRegion) run(i int) []int {
	out := r.sc.buf[:0]
	for _, j := range r.sc.adj[r.sc.start[i]:r.sc.start[i+1]] {
		out = append(out, int(j))
	}
	r.sc.buf = out
	return out
}
