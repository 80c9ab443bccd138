package serve

import (
	"repro/internal/aggregate"
	"repro/internal/core"
)

// coverageMemo carries each cluster's area and object coverage over from
// the epoch before, keyed by aggregate.Summary.CoverageKey: a cluster the
// new epoch summarises to the same aggregated area gets the coverage
// ComputeCoverage gave it then, without another pass over the source's
// rows. The global and class results of one epoch share it, so an area
// both report is computed once. An epoch keeps only the keys it used, so
// the memo holds at most the previous epoch's cluster count. It is sound
// because Config.Coverage is never written while the server runs. Guarded
// by Server.epochMu.
type coverageMemo struct {
	prev, cur map[string]coverage
}

type coverage struct{ area, object float64 }

// attach fills every cluster's coverage from the memo or, on a miss, from
// src.
func (m *coverageMemo) attach(res *core.Result, src aggregate.DataSource) {
	if m.cur == nil {
		m.cur = make(map[string]coverage)
	}
	for _, c := range res.Clusters {
		key := c.CoverageKey()
		v, ok := m.cur[key]
		if !ok {
			if v, ok = m.prev[key]; !ok {
				c.ComputeCoverage(src)
				v = coverage{c.AreaCoverage, c.ObjectCoverage}
			}
			m.cur[key] = v
		}
		c.AreaCoverage, c.ObjectCoverage = v.area, v.object
	}
}

// endEpoch keeps the keys this epoch used and drops the rest.
func (m *coverageMemo) endEpoch() {
	m.prev, m.cur = m.cur, nil
}
