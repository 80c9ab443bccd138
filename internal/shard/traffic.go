package shard

import (
	"sort"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/traffic"
)

// WireTraffic is one shard's traffic-mining bundle, served on GET
// /shard/traffic and fetched by the coordinator alongside the epoch result
// at every Flush. Relation-set routing makes every piece disjoint across
// shards — a statement fingerprint determines a relation set, which the
// router binds to exactly one shard — so the coordinator's merge is pure
// concatenation: per-class results merge like the global one, drift events
// union, interface tables union.
type WireTraffic struct {
	Enabled bool `json:"enabled"`
	// Classes maps each traffic class to the shard's latest per-class epoch
	// result (absent before the first epoch).
	Classes map[string]*WireResult `json:"classes,omitempty"`
	// Drift is the shard's retained drift-event log, all classes. Shard
	// drift epochs count coordinator flushes (the only forced epochs a
	// routed shard sees), so event epochs agree across shards.
	Drift []traffic.Event `json:"drift,omitempty"`
	// Interfaces is the COMPLETE tracked interface table (not a top-K): the
	// coordinator re-ranks the union, and a per-shard cut could evict a
	// fingerprint that is globally hot.
	Interfaces []traffic.Interface `json:"interfaces,omitempty"`
	Tracked    int                 `json:"tracked,omitempty"`
}

// encodeTraffic builds the bundle from an embedded shard server. A classless
// shard yields Enabled=false and nothing else.
func encodeTraffic(s *serve.Server) *WireTraffic {
	if !s.TrafficEnabled() {
		return &WireTraffic{}
	}
	wt := &WireTraffic{
		Enabled: true,
		Classes: make(map[string]*WireResult, len(traffic.Classes)),
		Drift:   s.DriftEvents(""),
	}
	wt.Interfaces, wt.Tracked = s.Interfaces(0)
	for _, cls := range traffic.Classes {
		if res, gen, _ := s.Latest(cls); res != nil {
			wt.Classes[cls] = EncodeResult(res, gen)
		}
	}
	return wt
}

// classRank orders cross-shard drift events by the classes' canonical order
// (the order serve observes them in), not alphabetically.
var classRank = func() map[string]int {
	m := make(map[string]int, len(traffic.Classes))
	for i, cls := range traffic.Classes {
		m[cls] = i
	}
	return m
}()

// sortDriftEvents establishes one deterministic total order over the union
// of per-shard event logs. Within a shard the log is already deterministic;
// across shards only the epoch is shared, so the remaining keys are the
// event's own fields — every comparison is on values, never on shard index
// arrival timing.
func sortDriftEvents(ev []traffic.Event) {
	sort.SliceStable(ev, func(i, j int) bool {
		a, b := &ev[i], &ev[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if ra, rb := classRank[a.Class], classRank[b.Class]; ra != rb {
			return ra < rb
		}
		if a.Expr != b.Expr {
			return a.Expr < b.Expr
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Cardinality != b.Cardinality {
			return a.Cardinality < b.Cardinality
		}
		return a.PrevCardinality < b.PrevCardinality
	})
}

// mergeTrafficLocked rebuilds the merged traffic view from the per-shard
// bundle cache — the traffic slice of remerge. Down shards contribute their
// last-known bundle, mirroring the global result's staleness semantics.
// Caller holds mergeMu.
func (c *Coordinator) mergeTrafficLocked() {
	classes := make(map[string]*core.Result, len(traffic.Classes))
	var events []traffic.Event
	var ifaces []traffic.Interface
	tracked := 0
	for _, wt := range c.lastTraffic {
		if wt == nil || !wt.Enabled {
			continue
		}
		events = append(events, wt.Drift...)
		ifaces = append(ifaces, wt.Interfaces...)
		tracked += wt.Tracked
	}
	for _, cls := range traffic.Classes {
		parts := make([]*core.Result, 0, len(c.lastTraffic))
		for _, wt := range c.lastTraffic {
			if wt == nil {
				continue
			}
			if wr := wt.Classes[cls]; wr != nil {
				parts = append(parts, DecodeResult(wr))
			}
		}
		if len(parts) == 0 {
			continue
		}
		m := core.MergeResults(parts...)
		if c.cfg.Coverage != nil {
			m.AttachCoverage(c.cfg.Coverage)
		}
		classes[cls] = m
	}
	sortDriftEvents(events)
	sort.SliceStable(ifaces, func(i, j int) bool {
		if ifaces[i].Hits != ifaces[j].Hits {
			return ifaces[i].Hits > ifaces[j].Hits
		}
		return ifaces[i].Fingerprint < ifaces[j].Fingerprint
	})
	c.mergedClass = classes
	c.mergedDrift = events
	c.mergedIfaces = ifaces
	c.ifaceTracked = tracked
}

// TrafficEnabled reports whether the coordinator serves the class-aware
// surfaces (Config.Traffic — the shards were started with traffic mining).
func (c *Coordinator) TrafficEnabled() bool { return c.cfg.Traffic }

// DriftEvents returns the merged drift log, optionally filtered to one class
// ("" = all). The slice is a copy.
func (c *Coordinator) DriftEvents(class string) []traffic.Event {
	c.mergeMu.RLock()
	defer c.mergeMu.RUnlock()
	out := make([]traffic.Event, 0, len(c.mergedDrift))
	for _, e := range c.mergedDrift {
		if class == "" || e.Class == class {
			out = append(out, e)
		}
	}
	return out
}

// Interfaces returns the merged top-K query interfaces (by hits, ties by
// fingerprint) and the total tracked-fingerprint count across shards.
func (c *Coordinator) Interfaces(top int) ([]traffic.Interface, int) {
	c.mergeMu.RLock()
	defer c.mergeMu.RUnlock()
	out := c.mergedIfaces
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return append([]traffic.Interface(nil), out...), c.ifaceTracked
}
