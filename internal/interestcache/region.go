// Package interestcache is the semantic result cache the paper's access-area
// mining motivates: mined clusters describe where in the data space users are
// interested, so the rows inside each cluster's aggregated access area are
// prefetched into per-region stores and queries whose own access area
// is contained in a cached region are answered from the region's store
// instead of the full database (DESIGN.md §11).
package interestcache

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/memdb"
	"repro/internal/predicate"
)

// Region is one prefetched cluster: the aggregated access area (relations,
// hyper-rectangle, categorical value lists) plus a sub-database holding
// exactly the rows of the source database inside the area. The store's
// tables share the source's row slices and are never written; hit counters
// are atomic so the serving path never takes a lock.
type Region struct {
	ID          int
	Generation  int64
	Relations   []string
	Box         *interval.Box
	Categorical map[string][]string

	store *memdb.DB
	// Rows and Bytes size the store: its row count and the logical size of
	// its cells (a 1-byte kind tag per cell, plus 8 per number and the
	// length of each string). The cells are shared with the source, so
	// Bytes is not memory the region owns.
	Rows  int
	Bytes int64

	// identity is the canonical signature of the cluster's access area
	// (relations + box + categorical). Install carries a region whose
	// identity is unchanged: the same interest area gets new cluster IDs
	// each epoch but the same identity.
	identity string
	// materializedAt stamps when the store was built; a carried region
	// keeps it, so Age is the time since the identity was first prefetched.
	materializedAt time.Time

	hits        atomic.Int64
	bytesServed atomic.Int64
}

// queryShape is a query's access area projected into the containment test's
// vocabulary: referenced relations, per-column numeric bound sets, and
// per-column pinned string values. Computing it once per query lets the
// index lookup test every candidate region against the same projection.
type queryShape struct {
	relations []string
	bounds    map[string]interval.Set
	strs      map[string][]string
}

func newQueryShape(area *extract.AccessArea) *queryShape {
	return &queryShape{
		relations: area.Relations,
		bounds:    area.Bounds(),
		strs:      predicate.StringBounds(area.CNF),
	}
}

// hull is the query's projected bound on one dimension: the hull of its
// interval set, or the full line when the column is unconstrained.
func (s *queryShape) hull(dim string) interval.Interval {
	if set, ok := s.bounds[dim]; ok {
		return set.Hull()
	}
	return interval.Full()
}

// newRegion prefetches the rows of db inside the cluster's aggregated access
// area. The store is db's restricted view as it is: its tables hold the
// source's own row slices, in source order (the property that makes
// TOP/ORDER BY-free enumeration from a region a subsequence of direct
// enumeration), so nothing is copied and db must not be written while the
// region is served.
func newRegion(db *memdb.DB, generation int64, c *aggregate.Summary) *Region {
	r := &Region{
		ID:          c.ID,
		Generation:  generation,
		Relations:   append([]string(nil), c.Relations...),
		Box:         c.Box.Clone(),
		Categorical: c.Categorical,
		identity:    identityOf(c.Relations, c.Box, c.Categorical),
	}
	r.store = db.Restrict(r.Relations, r.Box, r.Categorical)
	for _, name := range r.store.Tables() {
		for _, row := range r.store.Table(name).Rows {
			r.Rows++
			r.Bytes += rowBytes(row)
		}
	}
	r.materializedAt = time.Now()
	return r
}

// carryRegion re-wraps a prior generation's region under a new generation,
// sharing the immutable store but with fresh serving counters.
func carryRegion(prev *Region, id int, generation int64) *Region {
	return &Region{
		ID:             id,
		Generation:     generation,
		Relations:      prev.Relations,
		Box:            prev.Box,
		Categorical:    prev.Categorical,
		store:          prev.store,
		Rows:           prev.Rows,
		Bytes:          prev.Bytes,
		identity:       prev.identity,
		materializedAt: prev.materializedAt,
	}
}

// identityOf canonicalises a cluster's access area into a signature string:
// lowercased sorted relations, each box dimension with exact (bit-preserving)
// endpoints and openness, and each categorical column with its sorted folded
// value list. Two epochs that mine the same interest area produce the same
// identity even though cluster IDs differ.
func identityOf(relations []string, box *interval.Box, categorical map[string][]string) string {
	var b strings.Builder
	rels := make([]string, len(relations))
	for i, r := range relations {
		rels[i] = strings.ToLower(r)
	}
	sort.Strings(rels)
	b.WriteString(strings.Join(rels, ","))
	if box != nil {
		dims := box.Dims()
		sort.Strings(dims)
		for _, d := range dims {
			iv := box.Get(d)
			b.WriteString("|")
			b.WriteString(strings.ToLower(d))
			b.WriteString(boundMark(iv.LoOpen, "("))
			b.WriteString(strconv.FormatFloat(iv.Lo, 'x', -1, 64))
			b.WriteString(",")
			b.WriteString(strconv.FormatFloat(iv.Hi, 'x', -1, 64))
			b.WriteString(boundMark(iv.HiOpen, ")"))
		}
	}
	if len(categorical) > 0 {
		cols := make([]string, 0, len(categorical))
		for c := range categorical {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			vals := make([]string, len(categorical[c]))
			for i, v := range categorical[c] {
				vals[i] = strings.ToLower(v)
			}
			sort.Strings(vals)
			b.WriteString("|")
			b.WriteString(strings.ToLower(c))
			b.WriteString("=")
			b.WriteString(strings.Join(vals, ","))
		}
	}
	return b.String()
}

func boundMark(open bool, openMark string) string {
	if open {
		return openMark
	}
	if openMark == "(" {
		return "["
	}
	return "]"
}

// Contains reports whether every row the query's access area can touch is
// present in the region's store, i.e. whether the query may be answered from
// the region. The rule (DESIGN.md §11):
//
//  1. every query relation is one of the region's relations;
//  2. for each box dimension the region constrains on a relation the query
//     references, the hull of the query's projected bounds (the full
//     interval when the query leaves the column unconstrained) is contained
//     in the region's interval;
//  3. for each categorical column the region pins on a referenced relation,
//     the query must pin the column to a subset of the region's values
//     (case-insensitively, mirroring evaluation).
//
// Dimensions on relations the query never reads are irrelevant: the
// restriction they induce removes rows of other tables only.
func (r *Region) Contains(area *extract.AccessArea) bool {
	return r.containsShape(newQueryShape(area))
}

// containsShape is the containment test proper, shared by Contains and the
// index lookup.
func (r *Region) containsShape(s *queryShape) bool {
	for _, rel := range s.relations {
		if !containsFold(r.Relations, rel) {
			return false
		}
	}
	for _, dim := range r.Box.Dims() {
		rel, _, ok := splitQualified(dim)
		if !ok || !containsFold(s.relations, rel) {
			continue
		}
		if !r.Box.Get(dim).ContainsInterval(s.hull(dim)) {
			return false
		}
	}
	for col, regionVals := range r.Categorical {
		rel, _, ok := splitQualified(col)
		if !ok || !containsFold(s.relations, rel) {
			continue
		}
		queryVals, ok := s.strs[col]
		if !ok {
			return false
		}
		for _, v := range queryVals {
			if !containsFold(regionVals, v) {
				return false
			}
		}
	}
	return true
}

// Age is the time since the region's identity was prefetched; a region
// carried across installs keeps its first build time.
func (r *Region) Age() time.Duration {
	if r.materializedAt.IsZero() {
		return 0
	}
	return time.Since(r.materializedAt)
}

// Hits and BytesServed expose the per-region serving counters.
func (r *Region) Hits() int64        { return r.hits.Load() }
func (r *Region) BytesServed() int64 { return r.bytesServed.Load() }

func containsFold(list []string, s string) bool {
	for _, v := range list {
		if strings.EqualFold(v, s) {
			return true
		}
	}
	return false
}

func splitQualified(name string) (rel, col string, ok bool) {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return "", name, false
	}
	return name[:i], name[i+1:], true
}
