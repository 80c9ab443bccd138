package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the full exposition output for a registry with
// one of every metric type: stable name ordering, HELP escaping, histogram
// bucket cumulativeness and the +Inf/_sum/_count trailer.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "requests\nwith a newline and a back\\slash")
	c.Add(7)
	g := r.NewGauge("test_queue_depth", "queue depth")
	g.Set(3.5)
	r.NewGaugeFunc("test_uptime_seconds", "uptime", func() float64 { return 42 })
	r.NewCounterFunc("test_evals_total", "externally counted evals", func() float64 { return 19 })
	h := r.NewHistogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // le 0.01
	h.Observe(0.05)  // le 0.1
	h.Observe(0.05)  // le 0.1
	h.Observe(0.5)   // le 1
	h.Observe(5)     // +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_evals_total externally counted evals
# TYPE test_evals_total counter
test_evals_total 19
# HELP test_latency_seconds latency
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 3
test_latency_seconds_bucket{le="1"} 4
test_latency_seconds_bucket{le="+Inf"} 5
test_latency_seconds_sum 5.605
test_latency_seconds_count 5
# HELP test_queue_depth queue depth
# TYPE test_queue_depth gauge
test_queue_depth 3.5
# HELP test_requests_total requests\nwith a newline and a back\\slash
# TYPE test_requests_total counter
test_requests_total 7
# HELP test_uptime_seconds uptime
# TYPE test_uptime_seconds gauge
test_uptime_seconds 42
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramCumulative checks the le-bucket invariants hold for every
// prefix: each bucket count is non-decreasing and +Inf equals _count.
func TestHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("cum_seconds", "h", []float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 3, 7, 100, 2} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	var infCount, count int64
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "cum_seconds_bucket"):
			var n int64
			if _, err := fscanTail(line, &n); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if n < prev {
				t.Errorf("bucket count decreased: %q after %d", line, prev)
			}
			prev = n
			if strings.Contains(line, `le="+Inf"`) {
				infCount = n
			}
		case strings.HasPrefix(line, "cum_seconds_count"):
			if _, err := fscanTail(line, &count); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if infCount != 7 || count != 7 {
		t.Errorf("+Inf bucket = %d, _count = %d, want 7", infCount, count)
	}
}

// fscanTail parses the final whitespace-separated field of a sample line.
func fscanTail(line string, n *int64) (int, error) {
	fields := strings.Fields(line)
	return fieldToInt(fields[len(fields)-1], n)
}

func fieldToInt(s string, n *int64) (int, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadDigit
		}
		v = v*10 + int64(c-'0')
	}
	*n = v
	return 1, nil
}

var errBadDigit = &parseDigitError{}

type parseDigitError struct{}

func (*parseDigitError) Error() string { return "non-digit in count" }

// TestRegisterIdempotent verifies re-registering a name returns the same
// metric and a type clash panics.
func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("dup_total", "a")
	b := r.NewCounter("dup_total", "b")
	if a != b {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type clash did not panic")
		}
	}()
	r.NewGauge("dup_total", "clash")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid name did not panic")
		}
	}()
	NewRegistry().NewCounter("bad name!", "x")
}

// TestSnapshot checks the flat view used by the JSON handler.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("snap_total", "c").Add(3)
	r.NewGauge("snap_depth", "g").Set(1.5)
	h := r.NewHistogram("snap_seconds", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(2)
	got := r.Snapshot()
	want := map[string]float64{
		"snap_total":         3,
		"snap_depth":         1.5,
		"snap_seconds_count": 2,
		"snap_seconds_sum":   2.5,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("snapshot[%q] = %v, want %v", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("snapshot has %d keys, want %d: %v", len(got), len(want), got)
	}
}

// TestConcurrentObserve hammers one histogram and counter from many
// goroutines while rendering — meaningful under -race, and checks totals.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("conc_total", "c")
	h := r.NewHistogram("conc_seconds", "h", nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				if i%100 == 0 {
					var sb strings.Builder
					_ = r.WritePrometheus(&sb)
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}
