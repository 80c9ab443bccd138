package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// liveHeap returns the heap bytes still reachable after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clockStart anchors clock's wall-time reading.
var clockStart = time.Now()

// clock is the benchmark's clock, in seconds: wall time less the time the
// process's threads sat runnable while a processor served someone else (the
// run_delay field of /proc/self/task/*/schedstat). It counts the program's
// own CPU and its own waits — the WAL's group-commit fsync, the 429 backoff,
// lock and channel waits — but not the time a shared host hands to its other
// tenants. Where schedstat is unavailable it is plain wall time.
func clock() float64 { return time.Since(clockStart).Seconds() - runDelay() }

// since returns the seconds clock advanced after it read t.
func since(t float64) float64 { return clock() - t }

// runDelay sums the run-queue wait of every thread of the process.
func runDelay() float64 {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return 0
	}
	var ns int64
	var buf [128]byte
	for _, t := range tasks {
		f, err := os.Open("/proc/self/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread has exited; its wait is gone from the sum
		}
		n, _ := f.Read(buf[:])
		f.Close()
		// "<on-cpu ns> <run-queue ns> <timeslices>"
		if fields := strings.Fields(string(buf[:n])); len(fields) >= 2 {
			v, _ := strconv.ParseInt(fields[1], 10, 64)
			ns += v
		}
	}
	return float64(ns) / 1e9
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// cpuTicks reads the aggregate line of /proc/stat: steal ticks and all
// ticks. It returns zeros where /proc/stat is unavailable.
func cpuTicks() (steal, total float64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
