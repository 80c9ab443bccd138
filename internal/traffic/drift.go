package traffic

import (
	"math"
	"strconv"
	"strings"

	"repro/internal/aggregate"
)

// Event is one interest-drift observation: a class's cluster appeared,
// grew, shrank, or vanished between two observed epochs. Events are
// deterministic for a given ingest → flush script: drift is only evaluated
// at explicitly forced epochs (flush/shutdown on a shard, coordinator
// flushes globally), never at size- or timer-triggered mid-stream epochs
// whose boundaries depend on batch timing.
type Event struct {
	Epoch int64  `json:"epoch"`
	Class string `json:"class"`
	Kind  string `json:"kind"` // appeared | grew | shrank | vanished
	Expr  string `json:"expr"`
	// Relations is the cluster's relation set (sorted, as mined).
	Relations   []string `json:"relations,omitempty"`
	Cardinality int      `json:"cardinality"`
	// PrevCardinality is the matched previous-epoch cardinality (grew,
	// shrank and vanished events; zero for appeared).
	PrevCardinality int `json:"prev_cardinality,omitempty"`
}

// Drift event kinds.
const (
	DriftAppeared = "appeared"
	DriftGrew     = "grew"
	DriftShrank   = "shrank"
	DriftVanished = "vanished"
)

// driftGrowFrac is the relative cardinality change below which a matched
// cluster emits no event: tiny wobbles between epochs are not drift.
const driftGrowFrac = 0.10

// driftMatchMax is the largest normalised representative-area distance at
// which a new cluster still matches a previous one.
const driftMatchMax = 0.5

// snapCluster is the reduced, serialisable form of a cluster the detector
// matches against: its rendered expression, relation set, and numeric box
// as parallel column/endpoint slices (endpoints formatted as strings so
// ±Inf survives JSON).
type snapCluster struct {
	Expr        string   `json:"expr"`
	Relations   []string `json:"relations,omitempty"`
	Columns     []string `json:"columns,omitempty"`
	Lo          []string `json:"lo,omitempty"`
	Hi          []string `json:"hi,omitempty"`
	Cardinality int      `json:"cardinality"`
}

// relKey is the hard matching constraint: clusters only ever match within
// the same relation set and box column set.
func (s *snapCluster) relKey() string {
	return strings.Join(s.Relations, ",") + "|" + strings.Join(s.Columns, ",")
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func snapOf(c *aggregate.Summary) snapCluster {
	s := snapCluster{Expr: c.Expr(), Relations: c.Relations, Cardinality: c.Cardinality}
	if c.Box != nil {
		cols := c.Box.Dims()
		for _, col := range cols {
			iv := c.Box.Get(col)
			s.Columns = append(s.Columns, col)
			s.Lo = append(s.Lo, fstr(iv.Lo))
			s.Hi = append(s.Hi, fstr(iv.Hi))
		}
	}
	return s
}

// boxDist is the matching rule's distance: the maximum over shared columns
// of the normalised endpoint displacement |Δlo|+|Δhi| over the larger of
// the two widths. Infinite endpoints must agree exactly (an unbounded ray
// moving its finite end still compares; a ray vs a bounded interval is
// distance 1). Both snapshots are known to share a relKey, so the column
// slices are identical.
func boxDist(a, b *snapCluster) float64 {
	worst := 0.0
	for i := range a.Columns {
		alo, _ := strconv.ParseFloat(a.Lo[i], 64)
		ahi, _ := strconv.ParseFloat(a.Hi[i], 64)
		blo, _ := strconv.ParseFloat(b.Lo[i], 64)
		bhi, _ := strconv.ParseFloat(b.Hi[i], 64)
		d := endpointDist(alo, ahi, blo, bhi)
		if d > worst {
			worst = d
		}
	}
	return worst
}

func endpointDist(alo, ahi, blo, bhi float64) float64 {
	if math.IsInf(alo, 0) != math.IsInf(blo, 0) || math.IsInf(ahi, 0) != math.IsInf(bhi, 0) {
		return 1
	}
	var shift, width float64
	if !math.IsInf(alo, 0) {
		shift += math.Abs(alo - blo)
		if !math.IsInf(ahi, 0) {
			wa, wb := ahi-alo, bhi-blo
			width = math.Max(wa, wb)
		}
	}
	if !math.IsInf(ahi, 0) {
		shift += math.Abs(ahi - bhi)
	}
	if shift == 0 {
		return 0
	}
	if width <= 0 {
		// Point intervals or rays: normalise by the magnitude of the finite
		// endpoints so 18-digit object IDs don't need absolute tolerances.
		scale := 0.0
		if !math.IsInf(alo, 0) {
			scale = math.Max(scale, math.Abs(alo))
		}
		if !math.IsInf(ahi, 0) {
			scale = math.Max(scale, math.Abs(ahi))
		}
		if scale == 0 {
			scale = 1
		}
		return math.Min(1, shift/scale)
	}
	return math.Min(1, shift/width)
}

// driftMaxEvents bounds the retained drift-event log.
const driftMaxEvents = 4096

// Drift tracks per-class cluster snapshots across observed epochs and
// accumulates the event log. Not internally locked — the serving layer
// observes under its epoch lock and reads events under the same.
type Drift struct {
	prev   map[string][]snapCluster
	events []Event
}

// NewDrift builds a detector keeping at most driftMaxEvents events (oldest
// dropped first).
func NewDrift() *Drift {
	return &Drift{prev: make(map[string][]snapCluster)}
}

// Observe diffs one class's clusters against the class's previous observed
// epoch, appends the resulting events to the log and returns them. clusters
// must be in the miner's final (total) order — matching is greedy over that
// order, which is what makes two identical runs emit identical sequences.
func (d *Drift) Observe(class string, epoch int64, clusters []*aggregate.Summary) []Event {
	cur := make([]snapCluster, len(clusters))
	for i, c := range clusters {
		cur[i] = snapOf(c)
	}
	prev := d.prev[class]
	used := make([]bool, len(prev))
	var out []Event

	for i := range cur {
		bestJ, bestD := -1, driftMatchMax
		for j := range prev {
			if used[j] || prev[j].relKey() != cur[i].relKey() {
				continue
			}
			if dd := boxDist(&cur[i], &prev[j]); dd < bestD || (bestJ < 0 && dd <= bestD) {
				bestJ, bestD = j, dd
			}
		}
		if bestJ < 0 {
			out = append(out, Event{
				Epoch: epoch, Class: class, Kind: DriftAppeared,
				Expr: cur[i].Expr, Relations: cur[i].Relations,
				Cardinality: cur[i].Cardinality,
			})
			continue
		}
		used[bestJ] = true
		p := prev[bestJ]
		delta := cur[i].Cardinality - p.Cardinality
		base := p.Cardinality
		if base < 1 {
			base = 1
		}
		if math.Abs(float64(delta))/float64(base) < driftGrowFrac {
			continue
		}
		kind := DriftGrew
		if delta < 0 {
			kind = DriftShrank
		}
		out = append(out, Event{
			Epoch: epoch, Class: class, Kind: kind,
			Expr: cur[i].Expr, Relations: cur[i].Relations,
			Cardinality: cur[i].Cardinality, PrevCardinality: p.Cardinality,
		})
	}
	for j := range prev {
		if used[j] {
			continue
		}
		out = append(out, Event{
			Epoch: epoch, Class: class, Kind: DriftVanished,
			Expr: prev[j].Expr, Relations: prev[j].Relations,
			Cardinality: 0, PrevCardinality: prev[j].Cardinality,
		})
	}

	d.prev[class] = cur
	d.events = append(d.events, out...)
	if over := len(d.events) - driftMaxEvents; over > 0 {
		d.events = append(d.events[:0:0], d.events[over:]...)
	}
	return out
}

// Events returns the retained log, optionally filtered to one class
// (class == "" returns everything). The slice is a copy.
func (d *Drift) Events(class string) []Event {
	out := make([]Event, 0, len(d.events))
	for _, e := range d.events {
		if class == "" || e.Class == class {
			out = append(out, e)
		}
	}
	return out
}

// DriftState is the snapshot form of a Drift detector.
type DriftState struct {
	Prev   map[string][]snapCluster `json:"prev,omitempty"`
	Events []Event                  `json:"events,omitempty"`
}

// ExportState snapshots the detector.
func (d *Drift) ExportState() *DriftState {
	st := &DriftState{Events: append([]Event(nil), d.events...)}
	if len(d.prev) > 0 {
		st.Prev = make(map[string][]snapCluster, len(d.prev))
		for k, v := range d.prev {
			st.Prev[k] = append([]snapCluster(nil), v...)
		}
	}
	return st
}

// RestoreState replaces the detector's state with a snapshot.
func (d *Drift) RestoreState(st *DriftState) {
	d.prev = make(map[string][]snapCluster, len(st.Prev))
	for k, v := range st.Prev {
		d.prev[k] = append([]snapCluster(nil), v...)
	}
	d.events = append([]Event(nil), st.Events...)
}
