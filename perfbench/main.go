// Command perfbench is the repository's benchmark: it drives serve.Server —
// skyserved's standalone configuration with the WAL, traffic classes,
// coverage and the /query cache on — through in-memory HTTP requests, one
// closed-loop client, on one workload generated from --seed.
//
// A run is a fixed number of rounds set by --seconds. A round sets a fresh
// server up, runs the workload's timed ingest/flush phase, a read phase and
// timed /report calls, then crashes the server and times its recovery.
// Outside the timed parts it checks that the final /report is byte-identical
// to the batch miner over the acknowledged records, that recovery serves the
// same report, and that sampled /query replies equal direct execution.
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer ledger from rounds run with spans on,
// alternating with untraced rounds that measure the tracing overhead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mine_novel --seed 1 --seconds 48 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/obs"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string
	sizes    sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: mine_novel or ingest_dup")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	fs.Float64Var(&cfg.seconds, "seconds", 48, "run length; sets the number of rounds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report the per-layer ledger instead of end-to-end metrics")
	fs.StringVar(&cfg.work, "workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for WAL segments, snapshots and span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, not %d\n", traceFlag)
		return 2
	}
	sz, ok := fullSizes[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", cfg.workload, workloads)
		return 2
	}
	cfg.sizes = sz
	cfg.trace = traceFlag == 1
	// One processor: on a small shared host, steal time made two-processor
	// runs far noisier, and it also pins the miner and pipeline to one worker.
	runtime.GOMAXPROCS(1)
	res, err := bench(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// bench runs one workload for about cfg.seconds and assembles its metrics.
// The number of rounds follows from cfg.seconds and the workload's nominal
// round length, so the work a run does depends on its arguments alone, not
// on how fast the host happens to be. Each round replays a log generated
// from its own sub-seed of cfg.seed; a traced run gives each sub-seed one
// untraced and one traced round, so the tracing overhead compares like with
// like.
func bench(cfg config, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	obs.SetSpansEnabled(false)
	res := &result{Metrics: map[string]metric{}}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()

	var host hostProbe
	if cfg.trace {
		host.start()
	}
	// One untimed set-up first: the process's first one pays one-off costs.
	if _, err := setupOnce(cfg.work); err != nil {
		return nil, err
	}
	res.Attempted++

	rounds := max(1, int(math.Round(cfg.seconds/cfg.sizes.roundSeconds)))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rounds = max(2, rounds+rounds%2)
	}
	var plain, traced []*round
	var walls [2][]float64 // untraced, traced
	var gc gcProbe
	var in *inputs
	var ref *reference
	for n := 0; n < rounds; n++ {
		sub, on := n, false
		if cfg.trace {
			sub, on = n/2, n%2 == 1
		}
		if in == nil || in.seed != subSeed(cfg.seed, sub) {
			var err error
			if in, err = buildInputs(cfg.workload, subSeed(cfg.seed, sub), cfg.sizes); err != nil {
				return nil, err
			}
			if ref, err = newReference(in.records); err != nil {
				return nil, err
			}
		}
		var rt *tracer
		if on {
			rt = tr
			obs.SetSpansEnabled(true)
			gc.begin()
		}
		r, err := runRound(in, ref.report, cfg.work, rt, cal)
		if err != nil {
			return nil, err
		}
		if on {
			gc.end()
			obs.SetSpansEnabled(false)
			traced = append(traced, r)
			walls[1] = append(walls[1], r.wallS)
		} else {
			plain = append(plain, r)
			walls[0] = append(walls[0], r.wallS)
		}
		fmt.Fprintf(stderr, "perfbench: %s round %d (traced %v): %.2fs wall, %.2fs write path, recovery %.2fs, write-phase probe %.1fms\n",
			cfg.workload, n, on, r.wallS, r.writeS, median(r.recoverS), median(r.probes[phaseWrite])*1000)
		res.Attempted += r.attempted
		res.Failed += r.failed
		for _, e := range r.errs {
			fmt.Fprintf(stderr, "perfbench: round %d: %s\n", n, e)
		}
	}
	res.Correct = res.Failed == 0

	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	fmt.Fprintf(stderr, "perfbench: probe median %.2fms over %d samples\n",
		median(cal.samples)*1000, len(cal.samples))
	if !cfg.trace {
		endToEnd(plain, probeExponent[cfg.workload], put)
		return res, nil
	}
	host.end()
	layers(in, ref, traced, tr, walls, gc, host, cal, put)
	if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// subSeed derives round k's input seed from the run's seed (splitmix64).
func subSeed(seed int64, k int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(k+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// endToEnd computes the user-visible metrics over the rounds of one run.
// Each phase's times are scaled by the host factor sampled beside them, to
// the workload's power exp, to read as on the nominal host. The host's speed changes in blocks of
// seconds, so a time is the median over rounds of each round's median, and
// one slow stretch moves one round's figure, not the run's. /flush times are
// averaged instead: within a round they ramp up with the areas mined so far,
// so a median would rest on the two middle flushes of each round alone.
func endToEnd(rs []*round, exp float64, put func(name, unit string, v float64)) {
	var setups, visible, rps, heap, wal, recov []float64
	hits, queries := 0, 0
	for _, r := range rs {
		setups = append(setups, median(r.setupS)*r.factor(phaseSetup, exp))
		for _, v := range r.visibleMs {
			visible = append(visible, v*r.factor(phaseWrite, exp))
		}
		recov = append(recov, median(r.recoverS)*r.factor(phaseRecover, exp))
		rps = append(rps, float64(r.records)/r.writeS/r.factor(phaseWrite, exp))
		hits += r.hits
		queries += r.queries
		heap = append(heap, r.heapMB)
		wal = append(wal, float64(r.walBytes)/float64(r.records))
	}
	put("setup_s", "s", median(setups))
	put("ingest_rps", "1/s", median(rps))
	put("visible_mean_ms", "ms", mean(visible))
	put("query_hit_ratio", "ratio", float64(hits)/float64(queries))
	put("recover_s", "s", median(recov))
	put("heap_mb", "MB", median(heap))
	put("wal_bytes_per_record", "B", median(wal))
}
