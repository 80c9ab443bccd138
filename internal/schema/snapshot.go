package schema

import (
	"sort"
	"strconv"

	"repro/internal/interval"
)

// Generation returns a counter that increments on every EFFECTIVE registry
// mutation: a seed call, a numeric observation that grew (or created) an
// access hull, or a categorical observation that added a new value. Reads
// and no-op observations leave it unchanged, so a stable generation across
// two instants proves every access(a)/content(a) answer — and therefore
// every distance profile compiled from them — is identical at both. The
// serving layer uses it to skip an idempotent re-flush; ChangedSince
// narrows the same question to columns for the miners' substrate.
func (s *Stats) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// ChangedSince reports which columns' access(a)/content(a) mutated after
// generation gen, together with the current generation, read under one lock
// so a concurrent Observe cannot slip between the two. all is true when a
// RestoreSnapshot ran after gen — every column may then differ and cols is
// nil. Columns come back sorted. A profile compiled from the registry at or
// after generation gen reads the same answers today unless it reads one of
// cols, which is how the shared distance substrate recompiles only the
// profiles a registry move can have changed.
func (s *Stats) ChangedSince(gen uint64) (cols []string, all bool, cur uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.resetGen > gen {
		return nil, true, s.gen
	}
	for col, g := range s.changed {
		if g > gen {
			cols = append(cols, col)
		}
	}
	sort.Strings(cols)
	return cols, false, s.gen
}

// IntervalSnapshot is the JSON form of an interval. Endpoints are encoded
// as strings because ±Inf (unbounded columns are common) is not
// representable in JSON numbers; strconv round-trips float64 exactly.
type IntervalSnapshot struct {
	Lo     string `json:"lo"`
	Hi     string `json:"hi"`
	LoOpen bool   `json:"lo_open,omitempty"`
	HiOpen bool   `json:"hi_open,omitempty"`
}

func snapInterval(iv interval.Interval) IntervalSnapshot {
	return IntervalSnapshot{
		Lo:     strconv.FormatFloat(iv.Lo, 'g', -1, 64),
		Hi:     strconv.FormatFloat(iv.Hi, 'g', -1, 64),
		LoOpen: iv.LoOpen,
		HiOpen: iv.HiOpen,
	}
}

func (s IntervalSnapshot) interval() interval.Interval {
	lo, _ := strconv.ParseFloat(s.Lo, 64)
	hi, _ := strconv.ParseFloat(s.Hi, 64)
	return interval.Interval{Lo: lo, Hi: hi, LoOpen: s.LoOpen, HiOpen: s.HiOpen}
}

// NumericSnapshot is the serialisable state of one numeric column.
type NumericSnapshot struct {
	Content IntervalSnapshot `json:"content"`
	Access  IntervalSnapshot `json:"access"`
}

// CategoricalSnapshot is the serialisable state of one categorical column.
type CategoricalSnapshot struct {
	Content []string `json:"content"`
	Access  []string `json:"access"`
}

// StatsSnapshot is the serialisable access(a)/content(a) registry, written
// into service snapshots so a restarted server reproduces the exact
// distance profiles of the one that shut down (re-extracting only the
// representative statement per area would under-grow access(a) otherwise).
type StatsSnapshot struct {
	Numeric     map[string]NumericSnapshot     `json:"numeric,omitempty"`
	Categorical map[string]CategoricalSnapshot `json:"categorical,omitempty"`
}

// Snapshot exports the registry state.
func (s *Stats) Snapshot() *StatsSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := &StatsSnapshot{
		Numeric:     make(map[string]NumericSnapshot, len(s.numeric)),
		Categorical: make(map[string]CategoricalSnapshot, len(s.categorical)),
	}
	for name, ns := range s.numeric {
		out.Numeric[name] = NumericSnapshot{Content: snapInterval(ns.content), Access: snapInterval(ns.access)}
	}
	for name, cs := range s.categorical {
		out.Categorical[name] = CategoricalSnapshot{Content: setSlice(cs.content), Access: setSlice(cs.access)}
	}
	return out
}

// RestoreSnapshot replaces the registry contents with a previously exported
// state and bumps the generation; ChangedSince reports every column as
// changed across it.
func (s *Stats) RestoreSnapshot(snap *StatsSnapshot) {
	if snap == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.numeric = make(map[string]*numericStat, len(snap.Numeric))
	for name, ns := range snap.Numeric {
		s.numeric[name] = &numericStat{content: ns.Content.interval(), access: ns.Access.interval()}
	}
	s.categorical = make(map[string]*categoricalStat, len(snap.Categorical))
	for name, cs := range snap.Categorical {
		s.categorical[name] = &categoricalStat{content: sliceSet(cs.Content), access: sliceSet(cs.Access)}
	}
	s.gen++
	s.resetGen = s.gen
	s.changed = make(map[string]uint64)
}

func setSlice(m map[string]struct{}) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func sliceSet(vals []string) map[string]struct{} {
	m := make(map[string]struct{}, len(vals))
	for _, v := range vals {
		m[v] = struct{}{}
	}
	return m
}
