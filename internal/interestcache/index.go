package interestcache

import (
	"math"
	"sort"
	"strings"
)

// containmentIndex answers "which cached region's box contains this query's
// access area" in sublinear time per group. Regions are grouped by their
// exact relation set; within a group, a primary dimension (the box dimension
// most regions constrain) orders the regions by interval start, and a
// segment tree over interval ends prunes the candidate scan: a region can
// contain the query only if its primary interval starts at or before the
// query's hull start AND ends at or after the hull end — a stabbing query
// the sorted order plus max-end tree answers without touching every region.
// Surviving candidates get the full Region.Contains check.
type containmentIndex struct {
	groups []*regionGroup
}

type regionGroup struct {
	// relations is the group's lowercased relation set.
	relations map[string]bool
	// primary is the group's ordering dimension ("" when no region in the
	// group constrains any dimension — then every region is a candidate).
	primary string
	// regions sorted ascending by primary-interval start (unconstrained =
	// -inf); starts/ends hold the projected endpoints, maxEnds the segment
	// tree of interval-end maxima over regions[0..i].
	regions []*Region
	starts  []float64
	maxEnds []float64
}

func buildIndex(regions []*Region) *containmentIndex {
	byKey := make(map[string]*regionGroup)
	var order []string
	for _, r := range regions {
		key := relationKey(r.Relations)
		g, ok := byKey[key]
		if !ok {
			g = &regionGroup{relations: make(map[string]bool)}
			for _, rel := range r.Relations {
				g.relations[strings.ToLower(rel)] = true
			}
			byKey[key] = g
			order = append(order, key)
		}
		g.regions = append(g.regions, r)
	}
	sort.Strings(order)
	idx := &containmentIndex{}
	for _, key := range order {
		g := byKey[key]
		g.build()
		idx.groups = append(idx.groups, g)
	}
	return idx
}

func relationKey(rels []string) string {
	low := make([]string, len(rels))
	for i, r := range rels {
		low[i] = strings.ToLower(r)
	}
	sort.Strings(low)
	return strings.Join(low, "\x00")
}

func (g *regionGroup) build() {
	// Primary dimension: constrained by the most regions; ties break
	// lexicographically so the choice is deterministic.
	count := make(map[string]int)
	for _, r := range g.regions {
		for _, d := range r.Box.Dims() {
			count[d]++
		}
	}
	for d, n := range count {
		if g.primary == "" || n > count[g.primary] || (n == count[g.primary] && d < g.primary) {
			g.primary = d
		}
	}
	if g.primary == "" {
		return
	}
	sort.SliceStable(g.regions, func(i, j int) bool {
		return g.regions[i].Box.Get(g.primary).Lo < g.regions[j].Box.Get(g.primary).Lo
	})
	g.starts = make([]float64, len(g.regions))
	g.maxEnds = make([]float64, len(g.regions))
	for i, r := range g.regions {
		iv := r.Box.Get(g.primary)
		g.starts[i] = iv.Lo
		g.maxEnds[i] = iv.Hi
		if i > 0 && g.maxEnds[i-1] > g.maxEnds[i] {
			g.maxEnds[i] = g.maxEnds[i-1]
		}
	}
}

// lookup returns the best region containing the query's access area: the one
// with the fewest prefetched rows (cheapest store), ties broken by smallest
// ID. Nil when no region contains the area.
func (idx *containmentIndex) lookup(shape *queryShape) *Region {
	var best *Region
	consider := func(r *Region) {
		if !r.containsShape(shape) {
			return
		}
		if best == nil || r.Rows < best.Rows || (r.Rows == best.Rows && r.ID < best.ID) {
			best = r
		}
	}
	for _, g := range idx.groups {
		if !g.covers(shape.relations) {
			continue
		}
		if g.primary == "" {
			for _, r := range g.regions {
				consider(r)
			}
			continue
		}
		// Project the query onto the primary dimension. When the primary's
		// relation is not one the query reads, the dimension is irrelevant
		// to containment and every region qualifies: probe with the empty
		// interval (+inf, -inf), which every [start, end] pair admits.
		qlo, qhi := math.Inf(1), math.Inf(-1)
		if rel, _, ok := splitQualified(g.primary); ok && containsFold(shape.relations, rel) {
			hull := shape.hull(g.primary)
			qlo, qhi = hull.Lo, hull.Hi
		}
		// Candidates form the prefix with start <= qlo; within it, only
		// positions whose running max end reaches qhi can contain the hull.
		n := sort.Search(len(g.starts), func(i int) bool { return g.starts[i] > qlo })
		for i := 0; i < n; i++ {
			if g.maxEnds[i] < qhi {
				// No region in the prefix up to i ends late enough; the
				// running max is non-decreasing, so skip ahead to the
				// first position where it could.
				j := sort.Search(n-i, func(k int) bool { return g.maxEnds[i+k] >= qhi })
				i += j - 1
				continue
			}
			if g.regions[i].Box.Get(g.primary).Hi >= qhi {
				consider(g.regions[i])
			}
		}
	}
	return best
}

func (g *regionGroup) covers(rels []string) bool {
	for _, r := range rels {
		if !g.relations[strings.ToLower(r)] {
			return false
		}
	}
	return true
}
