package obs

import (
	"sync/atomic"
	"time"
)

// spansEnabled gates every Start call. Spans default to on: an observation
// is two atomic adds, which the pipeline cannot feel. Disabling drops the
// Start path to one atomic load and a zero Span — no time read, no
// allocation (asserted by TestSpanDisabledZeroAllocs).
var spansEnabled atomic.Bool

func init() { spansEnabled.Store(true) }

// SetSpansEnabled turns stage-span collection on or off process-wide.
func SetSpansEnabled(on bool) { spansEnabled.Store(on) }

// Stage is a named hot-path phase with a latency histogram in the Default
// registry. Declare stages as package vars:
//
//	var parseStage = obs.NewStage("sqlparser_parse")
//
// and bracket the phase with
//
//	sp := parseStage.Start()
//	defer sp.End()
//
// Stage methods tolerate a nil receiver so optional instrumentation can be
// threaded without nil checks at every call site.
type Stage struct {
	hist *Histogram
}

// NewStage registers a stage latency histogram
// skyaccess_stage_<name>_seconds in the Default registry. Repeated calls
// with the same name share one histogram.
func NewStage(name string) *Stage {
	return &Stage{hist: NewHistogram(
		"skyaccess_stage_"+name+"_seconds",
		"latency of the "+name+" stage in seconds",
		nil,
	)}
}

// Span is an in-flight stage measurement. It is a two-word value — spans
// nest, cross goroutine boundaries when passed by value, and never
// allocate. The zero Span (from a disabled or nil stage) is inert.
type Span struct {
	stage *Stage
	t0    time.Time
}

// Start begins a span. On the disabled path it returns the zero Span
// without reading the clock.
func (st *Stage) Start() Span {
	if st == nil || !spansEnabled.Load() {
		return Span{}
	}
	return Span{stage: st, t0: time.Now()}
}

// End completes the span and records its duration in the stage histogram.
// Ending a zero Span is a no-op, so End need not be guarded even when the
// collection flag flipped mid-span.
func (s Span) End() {
	if s.stage == nil {
		return
	}
	s.stage.hist.Observe(time.Since(s.t0).Seconds())
}

// Observe records an externally measured duration (the qlog pipeline
// already times its stages for the §6.6 report; re-timing them would skew
// both numbers). Nil-stage and disabled paths are no-ops.
func (st *Stage) Observe(d time.Duration) {
	if st == nil || !spansEnabled.Load() {
		return
	}
	st.hist.Observe(d.Seconds())
}

// Count returns the number of completed spans (0 for a nil stage).
func (st *Stage) Count() int64 {
	if st == nil {
		return 0
	}
	return st.hist.Count()
}
