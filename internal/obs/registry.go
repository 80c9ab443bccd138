// Package obs is the stack's stdlib-only observability layer: a typed
// metrics registry (counters, gauges, fixed-bucket histograms — all with
// atomic hot paths), lightweight stage spans for the mining pipeline, and a
// ring-buffer slow-query log. The registry renders itself in Prometheus
// text exposition format (stable ordering, escaped help strings, cumulative
// histogram buckets) and as a flat float snapshot for JSON views.
//
// Two registries matter in practice: the package Default registry holds
// process-wide instruments (per-stage latency histograms, package counters
// like template-cache hits), while each serve.Server and each shard
// coordinator owns a private registry for its per-instance counters and
// gauges, the one source of its /metrics views. Registration is idempotent —
// re-registering a name returns the existing metric — so package-level
// stages can be declared in var blocks without init-order ceremony.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can expose.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string // "counter", "gauge" or "histogram"
	// writeProm appends the metric's sample lines (no HELP/TYPE header).
	writeProm(sb *strings.Builder)
	// snapshot flattens the metric into name -> value pairs.
	snapshot(into map[string]float64)
}

// Registry holds a named set of metrics. The zero value is not usable;
// create with NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level instruments
// (stage spans, package counters) register into.
func Default() *Registry { return defaultRegistry }

// register returns the existing metric under name when one is present (and
// panics if its type differs — that is always a programming error), or
// installs m.
func (r *Registry) register(name string, m metric) metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.metrics[name]; ok {
		if old.metricType() != m.metricType() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)",
				name, m.metricType(), old.metricType()))
		}
		return old
	}
	r.metrics[name] = m
	return m
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// sorted returns the registered metrics in name order (the exposition
// contract: output ordering is stable across calls and processes).
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].metricName() < out[j].metricName() })
	return out
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	for _, m := range r.sorted() {
		sb.WriteString("# HELP ")
		sb.WriteString(m.metricName())
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(m.metricHelp()))
		sb.WriteByte('\n')
		sb.WriteString("# TYPE ")
		sb.WriteString(m.metricName())
		sb.WriteByte(' ')
		sb.WriteString(m.metricType())
		sb.WriteByte('\n')
		m.writeProm(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Snapshot flattens the registry into metric name -> value. Histograms
// contribute <name>_count and <name>_sum. The map is a point-in-time copy;
// counters read atomically but the set as a whole is not one atomic cut.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range r.sorted() {
		m.snapshot(out)
	}
	return out
}

// escapeHelp escapes a HELP string per the exposition format: backslash and
// newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- Counter ----

// Counter is a monotonically increasing integer metric.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// NewCounter registers (or fetches) a counter in the registry.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.register(name, &Counter{name: name, help: help}).(*Counter)
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return defaultRegistry.NewCounter(name, help) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a programming error and are dropped to
// keep the counter monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) writeProm(sb *strings.Builder) {
	sb.WriteString(c.name)
	sb.WriteByte(' ')
	sb.WriteString(strconv.FormatInt(c.v.Load(), 10))
	sb.WriteByte('\n')
}
func (c *Counter) snapshot(into map[string]float64) { into[c.name] = float64(c.v.Load()) }

// ---- CounterFunc ----

// CounterFunc exposes an externally maintained monotone counter (e.g. an
// atomic the hot path already increments) without double-counting.
type CounterFunc struct {
	name string
	help string
	fn   func() float64
}

// NewCounterFunc registers (or fetches) a function-backed counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) *CounterFunc {
	return r.register(name, &CounterFunc{name: name, help: help, fn: fn}).(*CounterFunc)
}

func (c *CounterFunc) metricName() string { return c.name }
func (c *CounterFunc) metricHelp() string { return c.help }
func (c *CounterFunc) metricType() string { return "counter" }
func (c *CounterFunc) writeProm(sb *strings.Builder) {
	sb.WriteString(c.name)
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(c.fn()))
	sb.WriteByte('\n')
}
func (c *CounterFunc) snapshot(into map[string]float64) { into[c.name] = c.fn() }

// ---- Gauge ----

// Gauge is a settable float metric.
type Gauge struct {
	name string
	help string
	bits atomic.Uint64 // float64 bits
}

// NewGauge registers (or fetches) a gauge in the registry.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.register(name, &Gauge{name: name, help: help}).(*Gauge)
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return defaultRegistry.NewGauge(name, help) }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) writeProm(sb *strings.Builder) {
	sb.WriteString(g.name)
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(g.Value()))
	sb.WriteByte('\n')
}
func (g *Gauge) snapshot(into map[string]float64) { into[g.name] = g.Value() }

// ---- GaugeFunc ----

// GaugeFunc exposes a value computed at collection time (queue depth,
// uptime). fn must be safe to call concurrently.
type GaugeFunc struct {
	name string
	help string
	fn   func() float64
}

// NewGaugeFunc registers (or fetches) a function-backed gauge.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	return r.register(name, &GaugeFunc{name: name, help: help, fn: fn}).(*GaugeFunc)
}

func (g *GaugeFunc) metricName() string { return g.name }
func (g *GaugeFunc) metricHelp() string { return g.help }
func (g *GaugeFunc) metricType() string { return "gauge" }
func (g *GaugeFunc) writeProm(sb *strings.Builder) {
	sb.WriteString(g.name)
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(g.fn()))
	sb.WriteByte('\n')
}
func (g *GaugeFunc) snapshot(into map[string]float64) { into[g.name] = g.fn() }

// ---- Histogram ----

// DefaultLatencyBuckets spans 1µs to 10s — wide enough for a sub-µs cached
// template rebind and a multi-second cold epoch in one instrument.
var DefaultLatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2.5, 10,
}

// Histogram is a fixed-bucket histogram. Observations are two atomic adds;
// there is no per-observation allocation or lock.
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64
	inf     atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-add
}

// NewHistogram registers (or fetches) a histogram. bounds must be sorted
// ascending; nil means DefaultLatencyBuckets.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)),
	}
	return r.register(name, h).(*Histogram)
}

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are ~10 and the branch predictor does well
	// on latency distributions; a binary search buys nothing here.
	idx := -1
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	if idx >= 0 {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }

func (h *Histogram) writeProm(sb *strings.Builder) {
	// Buckets are cumulative in the exposition format; the reads are not one
	// atomic cut, so re-clamp to keep le-monotonicity and bucket ≤ count
	// even when observations land mid-render.
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		sb.WriteString(h.name)
		sb.WriteString(`_bucket{le="`)
		sb.WriteString(formatFloat(b))
		sb.WriteString(`"} `)
		sb.WriteString(strconv.FormatInt(cum, 10))
		sb.WriteByte('\n')
	}
	cum += h.inf.Load()
	total := h.count.Load()
	if total < cum {
		total = cum
	}
	sb.WriteString(h.name)
	sb.WriteString(`_bucket{le="+Inf"} `)
	sb.WriteString(strconv.FormatInt(total, 10))
	sb.WriteByte('\n')
	sb.WriteString(h.name)
	sb.WriteString("_sum ")
	sb.WriteString(formatFloat(h.Sum()))
	sb.WriteByte('\n')
	sb.WriteString(h.name)
	sb.WriteString("_count ")
	sb.WriteString(strconv.FormatInt(total, 10))
	sb.WriteByte('\n')
}

func (h *Histogram) snapshot(into map[string]float64) {
	into[h.name+"_count"] = float64(h.count.Load())
	into[h.name+"_sum"] = h.Sum()
}
