package main

import (
	"fmt"
	"sort"
	"syscall"
	"unsafe"
)

// nominalProbeS is the calibration probe's typical median time on the host
// the benchmark's bounds were set on, a 2-vCPU Xeon VM. Times are reported
// as they would read on a host where the probe takes this long.
const nominalProbeS = 0.040

// probeExponent is, per workload, how steeply the program's times follow
// the probe's: a time is scaled by (nominalProbeS / probe time) raised to
// it. Fitted on that VM over the post-flush samples of fifteen and five runs
// from two periods: mine_novel's clustering slowed more than the probe when
// the host was contended (log-log slope of run figures on probe medians
// 1.85 for the mean /flush time, 1.3 for recovery), and scaled by the 1.5
// power its mean /flush time spread least (standard deviation of log 0.028,
// against 0.036 at the 1st power and 0.068 unscaled); ingest_dup spread
// least at the 1st power (ingest_rps 0.022, against 0.045 at 1.5).
var probeExponent = map[string]float64{mineNovel: 1.5, ingestDup: 1}

// Probe sizes: a 32 MiB table of uint64 (eight times the VM's 4 MiB L2, a
// third of its shared L3) and 1 MiB of float64 to sort.
const (
	tableLen   = 1 << 22
	tableSteps = 1_000_000
	sortLen    = 1 << 17
)

// calibrator times a fixed reference task between the benchmark's phases:
// a million random read-modify-writes into a 32 MiB table, then a sort of
// 128k float64s, all in memory mapped outside the Go heap. It neither
// allocates nor reads anything the program touches, so no change to the
// program can move it, while the host's speed — clock frequency and above
// all contention from other tenants for the shared cache and memory — moves
// it along with the program. Each phase's times are scaled by nominalProbeS
// over the median of the probe times sampled beside them in the same round,
// raised to the workload's probeExponent.
//
// The task was chosen on that VM, where the program's speed on identical
// work moved by up to 1.9× between runs. Eight same-seed runs of each
// workload timed four candidate tasks beside every /flush; scaled by this
// one, the run-to-run standard deviation of log time fell from 0.082 to
// 0.035 (mine_novel median /flush time), 0.070 to 0.044 (mine_novel
// ingest_rps) and 0.054 to 0.033 (ingest_dup ingest_rps). An integer loop
// plus a dependent pointer chase tracks the program worse: the loop's time
// moved ±40% with no matching change in the program, and scaled by the
// pair's square the same runs spread 0.10–0.15.
type calibrator struct {
	maps    [][]byte
	table   []uint64
	src     []float64 // the fixed unsorted input
	buf     []float64 // sorted in place each sample
	samples []float64
}

func newCalibrator() (*calibrator, error) {
	c := &calibrator{}
	table, err := c.mapWords(tableLen)
	if err != nil {
		return nil, err
	}
	src, err := c.mapWords(sortLen)
	if err != nil {
		return nil, err
	}
	buf, err := c.mapWords(sortLen)
	if err != nil {
		return nil, err
	}
	c.table = table
	c.src = unsafe.Slice((*float64)(unsafe.Pointer(&src[0])), sortLen)
	c.buf = unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), sortLen)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range c.src {
		x = xorshift(x)
		c.src[i] = float64(x>>11) / (1 << 53)
	}
	// Fault every page in and warm up before the first sample counts.
	for i := range c.table {
		c.table[i] = uint64(i)
	}
	c.sample()
	c.samples = c.samples[:0]
	return c, nil
}

// mapWords maps n uint64 words of anonymous memory outside the Go heap.
func (c *calibrator) mapWords(n int) ([]uint64, error) {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration memory: %w", err)
	}
	c.maps = append(c.maps, mem)
	return unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n), nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// sample times the reference task once and returns the time.
func (c *calibrator) sample() float64 {
	t := clock()
	x := uint64(88172645463325252)
	for i := 0; i < tableSteps; i++ {
		x = xorshift(x)
		c.table[x&(tableLen-1)] += x
	}
	copy(c.buf, c.src)
	sort.Float64s(c.buf)
	el := since(t)
	c.samples = append(c.samples, el)
	return el
}

func (c *calibrator) close() {
	c.table, c.src, c.buf = nil, nil, nil
	for _, m := range c.maps {
		_ = syscall.Munmap(m) // the mappings die with the process anyway
	}
	c.maps = nil
}
