package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// tracer records the benchmark's own spans around each call into the server:
// one trace per request, a child span per POST an /ingest needed, so each
// child beyond the first is a 429 resend. The per-layer client latencies and
// the resend count are read from these spans; they stay in memory and are
// written out when the run ends. A nil tracer records nothing, so the
// end-to-end runs pay no tracing cost.
type tracer struct {
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is a handle on an open span; the zero span is inert.
type span struct {
	t  *tracer
	id int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a root span, which starts a new trace.
func (t *tracer) begin(name string) span {
	if t == nil {
		return span{}
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, spanRec{ID: id, Trace: id, Name: name, Start: int64(time.Since(t.t0))})
	return span{t: t, id: id}
}

// child opens a span caused by s, in s's trace.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	id := len(s.t.spans) + 1
	s.t.spans = append(s.t.spans, spanRec{
		ID: id, Parent: s.id, Trace: s.t.spans[s.id-1].Trace, Name: name,
		Start: int64(time.Since(s.t.t0)),
	})
	return span{t: s.t, id: id}
}

func (s span) end() {
	if s.t != nil {
		s.t.spans[s.id-1].End = int64(time.Since(s.t.t0))
	}
}

// durationsMs returns the wall time of every span named name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// resends counts the child spans beyond the first under each span named
// name: the POSTs a 429 forced.
func (t *tracer) resends(name string) int {
	children := map[int]int{}
	for _, s := range t.spans {
		if s.Parent != 0 && t.spans[s.Parent-1].Name == name {
			children[s.Parent]++
		}
	}
	n := 0
	for _, c := range children {
		n += c - 1
	}
	return n
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// deltas subtracts two obs registry snapshots.
func deltas(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
