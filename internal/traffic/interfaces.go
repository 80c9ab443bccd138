package traffic

import (
	"sort"
	"strconv"

	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/sqlparser"
)

// Param is one slot of a rendered query interface: its position, the
// column and operator the extraction template binds it to (when the
// template cache still holds the template), the inferred type, and the
// observed value range.
type Param struct {
	Slot   int    `json:"slot"`
	Column string `json:"column,omitempty"`
	Op     string `json:"op,omitempty"`
	Type   string `json:"type"` // "number" | "string"
	// Min/Max are the observed numeric range (number slots; formatted so
	// ±Inf and 18-digit IDs survive JSON).
	Min string `json:"min,omitempty"`
	Max string `json:"max,omitempty"`
	// Samples holds up to the miner's maxSamples distinct observed values
	// in first-seen order (string slots, and the source spellings of number
	// slots).
	Samples []string `json:"samples,omitempty"`
	Count   int64    `json:"count"`
}

// Interface is one mined query interface: a hot statement template, its
// skeleton, and its parameter slots.
type Interface struct {
	Fingerprint string  `json:"fingerprint"` // hex statement fingerprint
	Skeleton    string  `json:"skeleton"`
	Hits        int64   `json:"hits"`
	Params      []Param `json:"params,omitempty"`
}

// slotAcc accumulates one slot's observed values.
type slotAcc struct {
	Numeric  bool     `json:"numeric"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	Count    int64    `json:"count"`
	Samples  []string `json:"samples,omitempty"`
	overflow bool
}

func (s *slotAcc) sample(v string, cap int) {
	if s.overflow {
		return
	}
	for _, x := range s.Samples {
		if x == v {
			return
		}
	}
	if len(s.Samples) >= cap {
		s.overflow = true
		return
	}
	s.Samples = append(s.Samples, v)
}

// ifaceEntry is the per-fingerprint accumulator.
type ifaceEntry struct {
	Skeleton string     `json:"skeleton"`
	Hits     int64      `json:"hits"`
	Slots    []*slotAcc `json:"slots,omitempty"`
}

// Interfaces mines parameterized query interfaces from admission-time
// fingerprints and literals. Like the classifier it is not internally
// locked: the admission path feeds it in order.
type Interfaces struct {
	maxFPs     int
	maxSamples int
	byFP       map[uint64]*ifaceEntry
	order      []uint64 // first-seen order: the deterministic tie-break
}

// NewInterfaces builds a miner tracking at most maxFPs distinct
// fingerprints with maxSamples observed values per slot (0 = 2048 and 8).
func NewInterfaces(maxFPs, maxSamples int) *Interfaces {
	if maxFPs <= 0 {
		maxFPs = 2048
	}
	if maxSamples <= 0 {
		maxSamples = 8
	}
	return &Interfaces{maxFPs: maxFPs, maxSamples: maxSamples, byFP: make(map[uint64]*ifaceEntry)}
}

// Observe folds one admitted record's fingerprint and literals in. New
// fingerprints past the bound are ignored (hits on tracked ones still
// count), keeping the table size fixed under adversarial workloads.
func (x *Interfaces) Observe(fp uint64, sql string, lits []sqlparser.Literal) {
	if fp == 0 {
		return
	}
	e, ok := x.byFP[fp]
	if !ok {
		if len(x.byFP) >= x.maxFPs {
			return
		}
		e = &ifaceEntry{Skeleton: qlog.Skeleton(sql), Slots: make([]*slotAcc, len(lits))}
		for i, lit := range lits {
			e.Slots[i] = &slotAcc{Numeric: lit.Kind == sqlparser.Number}
		}
		x.byFP[fp] = e
		x.order = append(x.order, fp)
	}
	e.Hits++
	for i, lit := range lits {
		if i >= len(e.Slots) {
			break
		}
		s := e.Slots[i]
		s.Count++
		switch lit.Kind {
		case sqlparser.Number:
			if s.Count == 1 || lit.Num < s.Min {
				s.Min = lit.Num
			}
			if s.Count == 1 || lit.Num > s.Max {
				s.Max = lit.Num
			}
			s.sample(lit.Text, x.maxSamples)
		case sqlparser.String:
			s.sample(lit.Str, x.maxSamples)
		default:
			s.sample(lit.Text, x.maxSamples)
		}
	}
}

// Render returns the top-K interfaces by hits (ties broken by first-seen
// order). tmpl, when non-nil, supplies the slot → column/operator bindings
// from the extraction layer's cached templates; slots the template does not
// bind (or whose template was evicted) render with observed values only.
func (x *Interfaces) Render(top int, tmpl *extract.TemplateCache) []Interface {
	if top <= 0 {
		top = 10
	}
	idx := make(map[uint64]int, len(x.order))
	for i, fp := range x.order {
		idx[fp] = i
	}
	fps := append([]uint64(nil), x.order...)
	sort.SliceStable(fps, func(i, j int) bool {
		a, b := x.byFP[fps[i]], x.byFP[fps[j]]
		if a.Hits != b.Hits {
			return a.Hits > b.Hits
		}
		return idx[fps[i]] < idx[fps[j]]
	})
	if len(fps) > top {
		fps = fps[:top]
	}
	out := make([]Interface, 0, len(fps))
	for _, fp := range fps {
		e := x.byFP[fp]
		iface := Interface{
			Fingerprint: strconv.FormatUint(fp, 16),
			Skeleton:    e.Skeleton,
			Hits:        e.Hits,
		}
		var binds []extract.SlotBinding
		if tmpl != nil {
			if t, ok := tmpl.Get(fp); ok && t != nil {
				binds = t.SlotBindings()
			}
		}
		bydSlot := make(map[int]extract.SlotBinding, len(binds))
		for _, b := range binds {
			bydSlot[b.Slot] = b
		}
		for i, s := range e.Slots {
			if s == nil || s.Count == 0 {
				continue
			}
			p := Param{Slot: i + 1, Count: s.Count, Samples: s.Samples, Type: "string"}
			if s.Numeric {
				p.Type = "number"
				p.Min = strconv.FormatFloat(s.Min, 'g', -1, 64)
				p.Max = strconv.FormatFloat(s.Max, 'g', -1, 64)
			}
			if b, ok := bydSlot[i+1]; ok {
				p.Column, p.Op = b.Column, b.Op
			}
			iface.Params = append(iface.Params, p)
		}
		out = append(out, iface)
	}
	return out
}

// Len reports how many fingerprints are tracked.
func (x *Interfaces) Len() int { return len(x.byFP) }

// InterfacesState is the snapshot form of an Interfaces miner.
type InterfacesState struct {
	Order   []uint64               `json:"order,omitempty"`
	Entries map[string]*ifaceEntry `json:"entries,omitempty"` // key: decimal fp
}

// ExportState snapshots the miner.
func (x *Interfaces) ExportState() *InterfacesState {
	st := &InterfacesState{Order: append([]uint64(nil), x.order...)}
	if len(x.byFP) > 0 {
		st.Entries = make(map[string]*ifaceEntry, len(x.byFP))
		for fp, e := range x.byFP {
			cp := &ifaceEntry{Skeleton: e.Skeleton, Hits: e.Hits, Slots: make([]*slotAcc, len(e.Slots))}
			for i, s := range e.Slots {
				if s == nil {
					continue
				}
				sc := *s
				sc.Samples = append([]string(nil), s.Samples...)
				cp.Slots[i] = &sc
			}
			st.Entries[strconv.FormatUint(fp, 10)] = cp
		}
	}
	return st
}

// RestoreState replaces the miner's state with a snapshot.
func (x *Interfaces) RestoreState(st *InterfacesState) {
	x.byFP = make(map[uint64]*ifaceEntry, len(st.Entries))
	x.order = nil
	for _, fp := range st.Order {
		key := strconv.FormatUint(fp, 10)
		e, ok := st.Entries[key]
		if !ok {
			continue
		}
		cp := &ifaceEntry{Skeleton: e.Skeleton, Hits: e.Hits, Slots: make([]*slotAcc, len(e.Slots))}
		for i, s := range e.Slots {
			if s == nil {
				continue
			}
			sc := *s
			sc.Samples = append([]string(nil), s.Samples...)
			if len(sc.Samples) >= x.maxSamples {
				sc.overflow = true
			}
			cp.Slots[i] = &sc
		}
		x.byFP[fp] = cp
		x.order = append(x.order, fp)
	}
}
