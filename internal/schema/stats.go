package schema

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/interval"
)

// Stats is the access(a)/content(a) registry of Section 5.3. For every
// numeric column a it tracks
//
//	content(a) — an estimate of the minimum bounding interval of the data,
//	access(a)  — content(a) unioned (as a hull) with every constant that
//	             queries in the log referred to,
//
// and for every categorical column the corresponding value sets. Following
// the paper, content is seeded from a small data sample whose observed range
// [m, M] is doubled to [m - (M-m)/2, M + (M-m)/2], and access grows as
// queries are processed ("if it accesses data not falling into access(a),
// we update this range accordingly").
//
// Stats is safe for concurrent use; the clustering stage reads it from many
// goroutines while the extraction stage may still be appending.
type Stats struct {
	mu          sync.RWMutex
	numeric     map[string]*numericStat
	categorical map[string]*categoricalStat
	// gen counts effective mutations (see Generation in snapshot.go).
	gen uint64
	// changed maps every column that has ever mutated to the generation of
	// its latest effective mutation, and resetGen is the generation of the
	// latest RestoreSnapshot — the change log ChangedSince reads.
	changed  map[string]uint64
	resetGen uint64
}

type numericStat struct {
	content interval.Interval
	access  interval.Interval
}

type categoricalStat struct {
	content map[string]struct{}
	access  map[string]struct{}
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{
		numeric:     make(map[string]*numericStat),
		categorical: make(map[string]*categoricalStat),
		changed:     make(map[string]uint64),
	}
}

// bump records one effective mutation of column; the caller holds mu.
func (s *Stats) bump(column string) {
	s.gen++
	s.changed[column] = s.gen
}

// SeedNumericSample seeds content(a) and access(a) for column a (qualified
// name) from a data sample, applying the paper's range-doubling rule.
func (s *Stats) SeedNumericSample(column string, sample []float64) {
	if len(sample) == 0 {
		return
	}
	m, M := sample[0], sample[0]
	for _, v := range sample[1:] {
		if v < m {
			m = v
		}
		if v > M {
			M = v
		}
	}
	half := (M - m) / 2
	iv := interval.Closed(m-half, M+half)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.numeric[column] = &numericStat{content: iv, access: iv}
	s.bump(column)
}

// SeedNumericContent seeds content(a) directly with a known interval (used
// when the exact content box is available, e.g. from the synthetic
// generator), with access(a) starting equal to it.
func (s *Stats) SeedNumericContent(column string, content interval.Interval) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.numeric[column] = &numericStat{content: content, access: content}
	s.bump(column)
}

// SeedCategorical seeds the categorical content/access sets for column a.
func (s *Stats) SeedCategorical(column string, values []string) {
	cs := &categoricalStat{content: make(map[string]struct{}), access: make(map[string]struct{})}
	for _, v := range values {
		cs.content[v] = struct{}{}
		cs.access[v] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.categorical[column] = cs
	s.bump(column)
}

// ObserveNumeric records that a query referred to constant v on column a,
// growing access(a) if v falls outside it. An unseeded column's content(a)
// stays empty, as ObserveCategorical leaves it: queries say nothing about
// the data, and a content taken from the first constant observed would
// depend on which of several concurrent extractions observed first.
func (s *Stats) ObserveNumeric(column string, v float64) {
	if !isFinite(v) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ns, ok := s.numeric[column]
	if !ok {
		ns = &numericStat{content: interval.Empty(), access: interval.Point(v)}
		s.numeric[column] = ns
		s.bump(column)
		return
	}
	grown := ns.access.Hull(interval.Point(v))
	if grown != ns.access {
		ns.access = grown
		s.bump(column)
	}
}

// ObserveCategorical records that a query referred to value v on column a.
func (s *Stats) ObserveCategorical(column string, v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs, ok := s.categorical[column]
	if !ok {
		cs = &categoricalStat{content: make(map[string]struct{}), access: make(map[string]struct{})}
		s.categorical[column] = cs
	}
	if _, seen := cs.access[v]; !seen {
		cs.access[v] = struct{}{}
		s.bump(column)
	}
}

// NumericAccess returns access(a) for a numeric column. When the column has
// never been seeded or observed, ok is false and the caller should fall back
// to an uninformative default.
func (s *Stats) NumericAccess(column string) (interval.Interval, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns, ok := s.numeric[column]
	if !ok {
		return interval.Interval{}, false
	}
	return ns.access, true
}

// NumericContent returns content(a) for a numeric column.
func (s *Stats) NumericContent(column string) (interval.Interval, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ns, ok := s.numeric[column]
	if !ok {
		return interval.Interval{}, false
	}
	return ns.content, true
}

// CategoricalAccess returns the access value set of a categorical column.
func (s *Stats) CategoricalAccess(column string) (map[string]struct{}, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cs, ok := s.categorical[column]
	if !ok {
		return nil, false
	}
	out := make(map[string]struct{}, len(cs.access))
	for v := range cs.access {
		out[v] = struct{}{}
	}
	return out, true
}

// CategoricalContent returns the content value set of a categorical column.
func (s *Stats) CategoricalContent(column string) (map[string]struct{}, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cs, ok := s.categorical[column]
	if !ok {
		return nil, false
	}
	out := make(map[string]struct{}, len(cs.content))
	for v := range cs.content {
		out[v] = struct{}{}
	}
	return out, true
}

// NumericColumns returns the qualified names of all tracked numeric columns
// in sorted order.
func (s *Stats) NumericColumns() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.numeric)
}

// String summarises the registry, one column per line, for diagnostics.
func (s *Stats) String() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var b strings.Builder
	for _, name := range sortedKeys(s.numeric) {
		ns := s.numeric[name]
		fmt.Fprintf(&b, "%s: content=%s access=%s\n", name, ns.content, ns.access)
	}
	for _, name := range sortedKeys(s.categorical) {
		cs := s.categorical[name]
		fmt.Fprintf(&b, "%s: |content|=%d |access|=%d\n", name, len(cs.content), len(cs.access))
	}
	return b.String()
}
