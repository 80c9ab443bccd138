package interval

import (
	"fmt"
	"sort"
	"strings"
)

// Box is an axis-aligned hyper-rectangle over a set of named dimensions
// (fully-qualified column names). Dimensions absent from the map are
// unconstrained. Boxes model both content(R) — the minimum bounding
// rectangle of a relation's data — and aggregated access areas (the minimum
// bounding hyper-rectangles derived from DBSCAN clusters in Section 6.2).
type Box struct {
	dims map[string]Interval
}

// NewBox returns an empty-dimension (fully unconstrained) box.
func NewBox() *Box {
	return &Box{dims: make(map[string]Interval)}
}

// Set constrains dimension name to iv, replacing any previous constraint.
func (b *Box) Set(name string, iv Interval) {
	b.dims[name] = iv
}

// Constrain intersects the existing constraint on name with iv.
func (b *Box) Constrain(name string, iv Interval) {
	if cur, ok := b.dims[name]; ok {
		b.dims[name] = cur.Intersect(iv)
		return
	}
	b.dims[name] = iv
}

// Extend widens the constraint on name to include iv (hull).
func (b *Box) Extend(name string, iv Interval) {
	if cur, ok := b.dims[name]; ok {
		b.dims[name] = cur.Hull(iv)
		return
	}
	b.dims[name] = iv
}

// Get returns the constraint on name; the full interval if unconstrained.
func (b *Box) Get(name string) Interval {
	if iv, ok := b.dims[name]; ok {
		return iv
	}
	return Full()
}

// Has reports whether name is explicitly constrained.
func (b *Box) Has(name string) bool {
	_, ok := b.dims[name]
	return ok
}

// Dims returns the constrained dimension names in sorted order.
func (b *Box) Dims() []string {
	names := make([]string, 0, len(b.dims))
	for name := range b.dims {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of constrained dimensions.
func (b *Box) Len() int { return len(b.dims) }

// IsEmpty reports whether any dimension's interval is empty, making the box
// contain no point.
func (b *Box) IsEmpty() bool {
	for _, iv := range b.dims {
		if iv.IsEmpty() {
			return true
		}
	}
	return false
}

// Clone returns a deep copy.
func (b *Box) Clone() *Box {
	out := NewBox()
	for name, iv := range b.dims {
		out.dims[name] = iv
	}
	return out
}

// VolumeRatio returns the fraction of reference's volume that the
// intersection of b and reference occupies, considering only the dimensions
// constrained in b that also appear in reference. This implements the "area
// coverage" statistic of Table 1: v_access / v_content. Dimensions where the
// reference has zero or infinite width are skipped (they contribute factor 1
// when b covers them at all, 0 when b misses them entirely).
func (b *Box) VolumeRatio(reference *Box) float64 {
	ratio := 1.0
	for name, iv := range b.dims {
		ref, ok := reference.dims[name]
		if !ok {
			continue
		}
		inter := iv.Intersect(ref)
		if inter.IsEmpty() {
			return 0
		}
		rw := ref.Width()
		if rw == 0 || rw != rw /* NaN */ {
			continue
		}
		ratio *= inter.Width() / rw
	}
	return ratio
}

// ContainsBox reports whether every point of other lies inside b: for each
// dimension b constrains, other's projection onto that dimension (the full
// interval when other leaves it unconstrained) must be a subset of b's
// interval. Dimensions only other constrains never fail the test, since b is
// unbounded there. An empty other is contained in any box. This is the
// containment rule of the semantic result cache (DESIGN.md §11): a query
// whose access-area box is contained in a cached region's box can be
// answered from the region's prefetched rows.
func (b *Box) ContainsBox(other *Box) bool {
	if other.IsEmpty() {
		return true
	}
	for name, iv := range b.dims {
		if !iv.ContainsInterval(other.Get(name)) {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the named values fall within every
// constrained dimension of the box. Dimensions missing from values are
// treated as outside (the point does not determine them).
func (b *Box) ContainsPoint(values map[string]float64) bool {
	for name, iv := range b.dims {
		v, ok := values[name]
		if !ok || !iv.Contains(v) {
			return false
		}
	}
	return true
}

// String renders the box as a conjunction of per-dimension ranges in sorted
// dimension order, e.g. "a ∈ [1, 3] ∧ b ∈ (-inf, 5)".
func (b *Box) String() string {
	names := b.Dims()
	if len(names) == 0 {
		return "⊤"
	}
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s ∈ %s", name, b.dims[name])
	}
	return strings.Join(parts, " ∧ ")
}
