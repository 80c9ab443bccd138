// Package par is the one fan-out primitive the miner builds on: a bounded
// parallel for-loop whose workers claim indices from a shared counter, so
// fast items drain past slow ones without a static chunk boundary. Callers
// write each index's result into its own slot and read the slots back in
// order, which keeps every parallel stage's output independent of worker
// timing.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers setting: w ≤ 0 means one per processor
// (GOMAXPROCS).
func Workers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// For runs fn(0..n-1) on up to workers goroutines and returns when every
// call has. With workers ≤ 1 (or at most one index) it runs inline on the
// calling goroutine. fn must be safe for concurrent use across distinct
// indices.
func For(n, workers int, fn func(i int)) {
	ForWorker(n, workers, func(_, i int) { fn(i) })
}

// ForWorker is For that also tells fn which worker runs the call, a number
// in [0, workers): calls with the same worker number never overlap, so each
// worker can reuse its own scratch buffer.
func ForWorker(n, workers int, fn func(w, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
