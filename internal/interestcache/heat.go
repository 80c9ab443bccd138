package interestcache

import (
	"sort"
	"sync"
)

// Heat-based admission (DESIGN.md §17). Every region — resident or shadow —
// accumulates access heat: hits it served plus near-misses (queries it
// contained but could not serve). At each Install the previous generation's
// counters are folded into a persistent book keyed by the region's area
// identity, with exponential aging, and the new generation's candidate
// regions are admitted best-heat-first under the byte budget. Regions the
// budget excludes stay in the snapshot as shadows so they keep collecting
// near-miss heat and can earn their way back in.

const (
	// heatDecay is the per-install aging factor applied to the heat book.
	heatDecay = 0.5
	// installProbation is the slice of the budget Install reserves for
	// zero-heat newcomer regions.
	installProbation = 0.15
)

// heatEntry is one area identity's book state.
type heatEntry struct {
	heat  float64
	bytes int64 // last known materialised size, 0 when never measured
	seen  int64 // generation the identity last appeared as a candidate
}

// heatBook is the LFU-with-aging ledger. All access happens under the
// cache's install lock plus the book's own mutex (Metrics reads it
// concurrently with Install).
type heatBook struct {
	mu      sync.Mutex
	entries map[string]*heatEntry
}

func newHeatBook() *heatBook {
	return &heatBook{entries: map[string]*heatEntry{}}
}

// fold ages every entry once by heatDecay and adds the generation's
// observed counters (hits + near-misses) for both resident regions and
// shadows. Entries cold and unseen for several generations are dropped.
func (b *heatBook) fold(regions, shadows []*Region, generation int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, e := range b.entries {
		e.heat *= heatDecay
	}
	credit := func(r *Region) {
		e, ok := b.entries[r.identity]
		if !ok {
			e = &heatEntry{}
			b.entries[r.identity] = e
		}
		e.heat += float64(r.hits.Load() + r.nearMisses.Load())
		e.seen = generation
		if !r.shadow {
			e.bytes = r.Bytes
		}
	}
	for _, r := range regions {
		credit(r)
	}
	for _, r := range shadows {
		credit(r)
	}
	for id, e := range b.entries {
		if e.heat < 0.01 && generation-e.seen > 4 {
			delete(b.entries, id)
		}
	}
}

// heat reads an identity's current heat.
func (b *heatBook) heat(identity string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[identity]; ok {
		return e.heat
	}
	return 0
}

// knownBytes reads an identity's last measured store size.
func (b *heatBook) knownBytes(identity string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[identity]; ok {
		return e.bytes
	}
	return 0
}

// setBytes records a freshly measured store size (including for regions
// that were materialised only to be dropped — next install skips the
// wasted build).
func (b *heatBook) setBytes(identity string, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e, ok := b.entries[identity]; ok {
		e.bytes = n
		return
	}
	b.entries[identity] = &heatEntry{bytes: n}
}

// admission is the planner's verdict for one candidate.
type admission struct {
	candidate int // index into the caller's candidate list
	admit     bool
	probation bool // admitted with zero heat into the probation slice
}

// planAdmissions orders candidates best-heat-first (ties by position, i.e.
// cluster ID order) and admits greedily under the byte budget. Zero-heat
// newcomers first claim the probation reserve — a slice of the budget they
// can always have, so a fully heated cache still gives new interest areas
// immediate residency — then everyone left competes in heat order for the
// full remainder. Exact fits admit. budget <= 0 means unlimited.
//
// Sizes are the book's last known measurements (0 when the store was never
// materialised); Install trims coldest-first after materialising if actual
// sizes overflow the budget, so the plan is optimistic but the resident
// total never exceeds the budget.
func planAdmissions(heats []float64, sizes []int64, budget int64, probationFraction float64) []admission {
	n := len(heats)
	out := make([]admission, n)
	for i := range out {
		out[i].candidate = i
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return heats[order[a]] > heats[order[b]] })
	if budget <= 0 {
		for i := range out {
			out[i].admit = true
			out[i].probation = heats[i] == 0
		}
		return out
	}
	size := func(i int) int64 {
		if sizes[i] < 0 {
			return 0
		}
		return sizes[i]
	}
	// Pass 1: zero-heat newcomers claim the probation reserve (in candidate
	// order — the stable sort keeps equal heats in position order).
	reserve := int64(float64(budget) * probationFraction)
	var used int64
	for _, i := range order {
		if heats[i] != 0 {
			continue
		}
		if sz := size(i); used+sz <= reserve {
			out[i].admit = true
			out[i].probation = true
			used += sz
		}
	}
	// Pass 2: everyone else in heat order under the full budget.
	for _, i := range order {
		if out[i].admit {
			continue
		}
		if sz := size(i); used+sz <= budget {
			out[i].admit = true
			out[i].probation = heats[i] == 0
			used += sz
		}
	}
	return out
}
