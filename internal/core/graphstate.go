package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"repro/internal/aggregate"
)

// GraphState is the persisted form of a substrate's eps-neighbour graph:
// the distance work a restart would otherwise redo. It covers the slots the
// graph's last update scanned, in slot order, and names each one by the
// exporting miner's item index instead of storing its area, so a restore
// that re-extracts the same items in the same order re-interns the slots
// from them (Digest proves it did). Pivot indexes and compiled profiles are
// not kept: both are rebuilt from the restored registry.
type GraphState struct {
	// Eps and Split are the graph's eps and partition-rule flag.
	Eps   float64
	Split bool
	// Items holds each covered slot's item index minus the slot: zero
	// unless a class epoch interned an area before the global miner did.
	Items []int32
	// Digest is the SHA-256 of the covered slots' area keys in slot order.
	Digest []byte
	// Offsets and Nbrs hold the upper half of the symmetric neighbour
	// lists in CSR form, each pair once: slot k's neighbours above k are
	// Nbrs[Offsets[k]:Offsets[k+1]], ascending and delta-coded — each entry
	// is the gap to its predecessor, the first one the gap to k. A restore
	// mirrors them into full lists.
	Offsets []uint32
	Nbrs    []uint32
	// Stale lists the slots whose list predates a registry move: readers of
	// a column access(a) moved in since the graph's last update.
	Stale []uint32
}

// Graph install fallbacks: InstallGraph names one when it leaves the
// substrate untouched, and the next epoch then rebuilds the graph in full.
const (
	// FallbackBounds: the section is malformed (offsets, neighbours, item
	// indices or stale slots out of range), or the substrate is not fresh.
	FallbackBounds = "bounds"
	// FallbackDigest: the covered items' area keys differ from the
	// exporter's.
	FallbackDigest = "digest"
	// FallbackEps: the graph's eps is not the miner's (a restart with a
	// different -eps).
	FallbackEps = "eps"
	// FallbackSplit: the partition-rule flag disagrees with the covered
	// areas.
	FallbackSplit = "split"
)

// FallbackReasons lists every InstallGraph fallback, for metrics.
var FallbackReasons = []string{FallbackBounds, FallbackDigest, FallbackEps, FallbackSplit}

var errGraphBounds = errors.New("core: graph section out of bounds")

// keyDigest hashes area keys in order, each behind its length.
func keyDigest(keys []string) []byte {
	h := sha256.New()
	var n [binary.MaxVarintLen64]byte
	for _, k := range keys {
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(k)))])
		h.Write([]byte(k))
	}
	return h.Sum(nil)
}

// ExportGraph captures the substrate's neighbour graph for a snapshot,
// naming each covered slot by this miner's item index. It returns nil when
// there is nothing to keep: no DBSCAN epoch has built a graph, the registry
// was restored since it was, or a slot holds an area this miner never
// admitted. The caller must keep every miner sharing the substrate from
// reclustering meanwhile.
func (inc *Incremental) ExportGraph() *GraphState {
	s := inc.sub
	s.mu.Lock()
	g := &s.g
	cols, all, _ := s.stats.ChangedSince(s.gen)
	if !g.built || g.covered == 0 || all {
		s.mu.Unlock()
		return nil
	}
	n := g.covered
	keys := make([]string, n)
	for key, slot := range s.byKey {
		if slot < n {
			keys[slot] = key
		}
	}
	gs := &GraphState{Eps: g.eps, Split: g.split, Digest: keyDigest(keys), Offsets: make([]uint32, 1, n+1)}
	for slot, list := range g.nbrs[:n] {
		prev := int32(slot)
		for _, t := range list {
			if t < prev {
				continue // the pair is stored with the lower slot
			}
			gs.Nbrs = append(gs.Nbrs, uint32(t-prev))
			prev = t
		}
		gs.Offsets = append(gs.Offsets, uint32(len(gs.Nbrs)))
	}
	stale := append([]bool(nil), g.stale[:n]...)
	for _, col := range cols {
		for _, slot := range s.readers[col] {
			if int(slot) < n {
				stale[slot] = true
			}
		}
	}
	for slot, st := range stale {
		if st {
			gs.Stale = append(gs.Stale, uint32(slot))
		}
	}
	s.mu.Unlock()

	inc.acc.mu.Lock()
	defer inc.acc.mu.Unlock()
	gs.Items = make([]int32, n)
	for slot, key := range keys {
		idx, ok := inc.acc.byKey[key]
		if !ok {
			return nil
		}
		gs.Items[slot] = int32(idx - slot)
	}
	return gs
}

// Validate checks the section against a miner that restored items items:
// at least one and at most items covered slots, each naming a distinct
// item; offsets starting at 0, non-decreasing and ending at len(Nbrs);
// every list strictly ascending over covered slots above its own; stale
// slots covered. InstallGraph runs it before touching the substrate.
func (gs *GraphState) Validate(items int) error {
	_, _, err := gs.decode(items)
	return err
}

// decode validates the section (see Validate) and expands it: each covered
// slot's item index and full neighbour list, the upper halves mirrored
// below into one backing array.
func (gs *GraphState) decode(items int) ([]int, [][]int32, error) {
	n := len(gs.Items)
	if n == 0 || n > items || len(gs.Offsets) != n+1 || len(gs.Digest) != sha256.Size ||
		gs.Offsets[0] != 0 || int(gs.Offsets[n]) != len(gs.Nbrs) {
		return nil, nil, errGraphBounds
	}
	itemOf := make([]int, n)
	seen := make([]bool, items)
	for slot, d := range gs.Items {
		idx := slot + int(d)
		if idx < 0 || idx >= items || seen[idx] {
			return nil, nil, errGraphBounds
		}
		seen[idx] = true
		itemOf[slot] = idx
	}
	upper := make([]int32, len(gs.Nbrs))
	deg := make([]int, n+1) // deg[k+1]: slot k's list length, then its start
	for slot := 0; slot < n; slot++ {
		lo, hi := gs.Offsets[slot], gs.Offsets[slot+1]
		if lo > hi || int(hi) > len(gs.Nbrs) {
			return nil, nil, errGraphBounds
		}
		v := int64(slot)
		for j := lo; j < hi; j++ {
			v += int64(gs.Nbrs[j])
			if int64(gs.Nbrs[j]) == 0 || v >= int64(n) {
				return nil, nil, errGraphBounds
			}
			upper[j] = int32(v)
			deg[slot+1]++
			deg[v+1]++
		}
	}
	for _, slot := range gs.Stale {
		if int64(slot) >= int64(n) {
			return nil, nil, errGraphBounds
		}
	}
	for k := 1; k <= n; k++ {
		deg[k] += deg[k-1]
	}
	// Slots ascend, so each list receives its mirrored lower entries in
	// ascending order before its own upper half lands behind them.
	flat := make([]int32, deg[n])
	fill := append([]int(nil), deg[:n]...)
	for slot := 0; slot < n; slot++ {
		for _, t := range upper[gs.Offsets[slot]:gs.Offsets[slot+1]] {
			flat[fill[slot]] = t
			fill[slot]++
			flat[fill[t]] = int32(slot)
			fill[t]++
		}
	}
	// Each list is capped at its own end, so an in-place merge into one
	// never runs into the next; an empty list is nil, as a scan leaves it.
	lists := make([][]int32, n)
	for slot := range lists {
		if deg[slot] < deg[slot+1] {
			lists[slot] = flat[deg[slot]:deg[slot+1]:deg[slot+1]]
		}
	}
	return itemOf, lists, nil
}

// InstallGraph seeds a fresh substrate with a persisted graph, so the next
// epoch rescans only stale and new slots instead of building the graph from
// nothing. It runs after RestoreState and any replay that followed it, and
// before the first Recluster; since is the registry generation right after
// the registry restore, and every slot reading a column that moved after it
// is marked stale together with the section's own stale set. It interns the
// covered slots in their persisted order from this miner's restored items
// and returns how many it installed; on any mismatch it returns the
// fallback reason instead and leaves the substrate as it was.
func (inc *Incremental) InstallGraph(gs *GraphState, since uint64) (installed int, fallback string) {
	inc.acc.mu.Lock()
	itemOf, lists, err := gs.decode(len(inc.acc.items))
	var covered []*aggregate.Item
	var keys []string
	if err == nil {
		covered = make([]*aggregate.Item, len(itemOf))
		keys = make([]string, len(itemOf))
		for slot, idx := range itemOf {
			covered[slot] = inc.acc.items[idx]
			keys[slot] = covered[slot].AreaKey()
		}
	}
	inc.acc.mu.Unlock()
	switch {
	case err != nil || len(inc.slots) > 0:
		return 0, FallbackBounds
	case !bytes.Equal(keyDigest(keys), gs.Digest):
		return 0, FallbackDigest
	case gs.Eps != inc.m.cfg.Eps:
		return 0, FallbackEps
	}
	maxTables := 1
	for _, it := range covered {
		if len(it.Area.Relations) > maxTables {
			maxTables = len(it.Area.Relations)
		}
	}
	if gs.Split != (gs.Eps < 1.0/float64(maxTables+1)) {
		return 0, FallbackSplit
	}
	if !inc.sub.install(covered, keys, lists, gs, since) {
		return 0, FallbackBounds
	}
	return len(covered), ""
}

// install interns the covered items as slots 0..n-1 and makes lists their
// graph, reporting false (and changing nothing) unless the substrate is
// fresh and the registry was not restored after since.
func (s *Substrate) install(covered []*aggregate.Item, keys []string, lists [][]int32, gs *GraphState, since uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	cols, all, cur := s.stats.ChangedSince(since)
	if all || len(s.areas) > 0 {
		return false
	}
	s.gen = cur
	for i, it := range covered {
		s.intern(keys[i], it.Area)
	}
	n := len(covered)
	g := &s.g
	*g = nbrGraph{
		built: true, eps: gs.Eps, split: gs.Split, covered: n,
		nbrs: lists, stale: make([]bool, n), groups: make(map[string]*nbrGroup),
		pos: make([]int32, n), scanned: make([]uint64, n), seq: g.seq,
	}
	for _, slot := range gs.Stale {
		g.stale[slot] = true
	}
	for _, col := range cols {
		for _, slot := range s.readers[col] {
			g.stale[slot] = true
		}
	}
	for slot := 0; slot < n; slot++ {
		grp := g.group(s.groupKey(slot))
		g.pos[slot] = int32(len(grp.members))
		grp.members = append(grp.members, slot)
	}
	return true
}
