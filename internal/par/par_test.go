package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// For must call fn exactly once per index, whatever the worker count.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 1000} {
		for _, workers := range []int{0, 1, 3, 8} {
			hits := make([]atomic.Int32, n)
			For(n, workers, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}

func TestWorkers(t *testing.T) {
	if got, want := Workers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got, want := Workers(-2), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(-2) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
}

// ForWorker must visit each index once, name workers in [0, workers), and
// never run two calls of one worker at the same time.
func TestForWorkerOwnsItsWorker(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000} {
		for _, workers := range []int{1, 3, 8} {
			hits := make([]atomic.Int32, n)
			busy := make([]atomic.Int32, workers)
			ForWorker(n, workers, func(w, i int) {
				if w < 0 || w >= workers {
					t.Errorf("n=%d workers=%d: worker %d out of range", n, workers, w)
					return
				}
				if busy[w].Add(1) != 1 {
					t.Errorf("n=%d workers=%d: worker %d ran two calls at once", n, workers, w)
				}
				hits[i].Add(1)
				busy[w].Add(-1)
			})
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, got)
				}
			}
		}
	}
}
