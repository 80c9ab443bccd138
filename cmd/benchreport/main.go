// Command benchreport regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic SkyServer substrate and prints a
// paper-vs-measured comparison. See DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	benchreport [-scale 20000] [-seed 42] [-exp all|list|<experiment>]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	benchreport -compare old.json new.json [-tol 0.15]
//
// `-exp list` prints the available experiments with one-line descriptions.
// `-compare` diffs two BENCH_*.json records and exits non-zero when a
// deterministic counter metric regressed beyond -tol (see
// internal/benchcmp); wall-clock fields are ignored.
// The clusterperf experiment additionally writes its before/after numbers
// (brute-force vs pivot-index clustering) to -benchjson (default
// BENCH_clustering.json), pipelineperf writes its uncached-vs-cached
// extraction numbers to -pipejson (default BENCH_pipeline.json),
// semcacheperf writes the semantic-result-cache numbers (hit ratio,
// speedup, staleness window) to -semjson (default BENCH_semcache.json), and
// kernelperf writes the flat-kernel microbenchmark to -kerneljson (default
// BENCH_kernel.json), so successive changes have a counter trajectory.
// -cpuprofile/-memprofile capture stdlib pprof profiles of the selected
// experiments. The exit status is 2 on a usage error (bad flag, unknown
// experiment, bad -kernelscales entry) and 1 when a selected experiment
// fails or its record cannot be written.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/benchcmp"
	"repro/internal/experiments"
)

func main() {
	// -compare takes positional file arguments, which the flag package
	// would stop parsing at; it is a distinct mode with its own tiny CLI.
	if len(os.Args) > 1 && os.Args[1] == "-compare" {
		os.Exit(runCompare(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runCompare implements `benchreport -compare old.json new.json [-tol x]
// [-identity]`: exit 0 when no gated metric regressed, 1 on regression, 2 on
// usage or I/O errors. With -identity only the scale-independent correctness
// gates run (identical_* booleans, zero-stay-zero counters), so a
// reduced-scale quick record compares against the full-scale baseline.
func runCompare(args []string) int {
	tol := 0.15
	identity := false
	var files []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-identity" || a == "--identity":
			identity = true
		case a == "-tol" || a == "--tol":
			if i+1 >= len(args) {
				fmt.Fprintln(os.Stderr, "benchreport -compare: -tol needs a value")
				return 2
			}
			i++
			v, err := strconv.ParseFloat(args[i], 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "benchreport -compare: bad -tol %q\n", args[i])
				return 2
			}
			tol = v
		case strings.HasPrefix(a, "-tol="):
			v, err := strconv.ParseFloat(strings.TrimPrefix(a, "-tol="), 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "benchreport -compare: bad %q\n", a)
				return 2
			}
			tol = v
		case strings.HasPrefix(a, "-"):
			fmt.Fprintf(os.Stderr, "benchreport -compare: unknown flag %q\n", a)
			return 2
		default:
			files = append(files, a)
		}
	}
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchreport -compare old.json new.json [-tol 0.15] [-identity]")
		return 2
	}
	oldJSON, err := os.ReadFile(files[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport -compare: %v\n", err)
		return 2
	}
	newJSON, err := os.ReadFile(files[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport -compare: %v\n", err)
		return 2
	}
	var rep *benchcmp.Report
	if identity {
		rep, err = benchcmp.CompareIdentity(oldJSON, newJSON)
	} else {
		rep, err = benchcmp.Compare(oldJSON, newJSON, tol)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport -compare: %v\n", err)
		return 2
	}
	if identity {
		fmt.Printf("comparing %s -> %s (identity gates only)\n", files[0], files[1])
	} else {
		fmt.Printf("comparing %s -> %s (tol %.0f%%)\n", files[0], files[1], 100*tol)
	}
	fmt.Print(rep.String())
	if regs := rep.Regressions(); len(regs) > 0 {
		if identity {
			fmt.Printf("FAIL: %d identity gate(s) broken\n", len(regs))
		} else {
			fmt.Printf("FAIL: %d metric(s) regressed beyond %.0f%%\n", len(regs), 100*tol)
		}
		return 1
	}
	fmt.Println("PASS: no counter-metric regressions")
	return 0
}

// experiment pairs a selectable id with a one-line description (shown by
// `-exp list`) and the closure that runs it and returns its report.
type experiment struct {
	name string
	desc string
	fn   func() (string, error)
}

func listExperiments(w io.Writer, exps []experiment) {
	fmt.Fprintln(w, "available experiments (select with -exp <name>, or -exp all):")
	for _, e := range exps {
		fmt.Fprintf(w, "  %-14s %s\n", e.name, e.desc)
	}
}

// parseScales reads the -kernelscales list: comma-separated area counts,
// each above 1. An empty list selects kernelperf's defaults.
func parseScales(list string) ([]int, error) {
	var scales []int
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n <= 1 {
			return nil, fmt.Errorf("bad -kernelscales entry %q", s)
		}
		scales = append(scales, n)
	}
	return scales, nil
}

// run is main's body with a plain exit code so deferred profile writers run
// before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 20000, "number of log queries to generate")
	seed := fs.Int64("seed", 42, "generator seed")
	exp := fs.String("exp", "all", "experiment id, \"all\", or \"list\" to enumerate them")
	benchJSON := fs.String("benchjson", "BENCH_clustering.json", "output path for the clusterperf JSON record")
	pipeJSON := fs.String("pipejson", "BENCH_pipeline.json", "output path for the pipelineperf JSON record")
	semJSON := fs.String("semjson", "BENCH_semcache.json", "output path for the semcacheperf JSON record")
	kernelJSON := fs.String("kerneljson", "BENCH_kernel.json", "output path for the kernelperf JSON record")
	kernelScales := fs.String("kernelscales", "", "comma-separated area counts for kernelperf (default \"20000,100000\")")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	scales, err := parseScales(*kernelScales)
	if err != nil {
		fmt.Fprintf(stderr, "kernelperf: %v\n", err)
		return 2
	}

	writeJSON := func(path string, v any) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %s\n", path)
		return nil
	}

	// The substrate is built lazily so `-exp list` and unknown-id errors
	// stay instant instead of generating a 20k-query log first.
	var env *experiments.Env
	getEnv := func() *experiments.Env {
		if env == nil {
			env = experiments.NewEnv(*scale, *seed)
		}
		return env
	}

	exps := []experiment{
		{"table1", "paper Table 1: per-template access-area extraction accuracy",
			func() (string, error) { return getEnv().RunTable1().Report, nil }},
		{"fig1a", "paper Figure 1a: cluster count vs minPts",
			func() (string, error) { return getEnv().RunFigure1('a').Report, nil }},
		{"fig1b", "paper Figure 1b: cluster count vs epsilon",
			func() (string, error) { return getEnv().RunFigure1('b').Report, nil }},
		{"fig1c", "paper Figure 1c: clustered-query fraction vs epsilon",
			func() (string, error) { return getEnv().RunFigure1('c').Report, nil }},
		{"coverage", "share of the log covered by mined interest areas",
			func() (string, error) { return getEnv().RunCoverage().Report, nil }},
		{"olapclus", "OLAP-style rollup over exact extracted areas",
			func() (string, error) { return getEnv().RunOLAPClusExact().Report, nil }},
		{"olapclusraw", "OLAP-style rollup over raw (unfiltered) areas",
			func() (string, error) { return getEnv().RunOLAPClusRaw().Report, nil }},
		{"efficiency", "extraction + clustering wall-clock efficiency",
			func() (string, error) { return getEnv().RunEfficiency().Report, nil }},
		{"requery", "re-query rate: how often users revisit mined areas",
			func() (string, error) { return getEnv().RunRequery().Report, nil }},
		{"ablation", "pipeline ablation: drop one stage at a time",
			func() (string, error) { return getEnv().RunAblation().Report, nil }},
		{"ablationsigma", "sigma-expansion ablation for approximate areas",
			func() (string, error) { return getEnv().RunAblationSigma().Report, nil }},
		{"density", "cluster density profile across the data space",
			func() (string, error) { return getEnv().RunDensity().Report, nil }},
		{"scaling", "mining throughput as the log scale grows",
			func() (string, error) { return getEnv().RunScaling().Report, nil }},
		{"clusterperf", "brute-force vs pivot-index clustering benchmark (writes -benchjson)",
			func() (string, error) {
				res := getEnv().RunClusterPerf()
				return res.Report, writeJSON(*benchJSON, res)
			}},
		{"pipelineperf", "uncached vs template-cached extraction benchmark (writes -pipejson)",
			func() (string, error) {
				res := getEnv().RunPipelinePerf()
				return res.Report, writeJSON(*pipeJSON, res)
			}},
		{"semcacheperf", "semantic result cache: oracle, hit ratio, speedup, staleness (writes -semjson)",
			func() (string, error) {
				res, err := experiments.RunSemCachePerf(*scale, *seed)
				if err != nil {
					return "", err
				}
				return res.Report, writeJSON(*semJSON, res)
			}},
		{"kernelperf", "flat SoA distance kernel vs pointer profiles microbenchmark (writes -kerneljson)",
			func() (string, error) {
				res := experiments.RunKernelPerf(*seed, scales...)
				return res.Report, writeJSON(*kernelJSON, res)
			}},
	}

	want := strings.ToLower(*exp)
	if want == "list" {
		listExperiments(stdout, exps)
		return 0
	}
	known := want == "all"
	for _, e := range exps {
		if e.name == want {
			known = true
			break
		}
	}
	if !known {
		fmt.Fprintf(stderr, "unknown experiment %q\n\n", *exp)
		listExperiments(stderr, exps)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}

	status := 0
	for _, e := range exps {
		if want != "all" && want != e.name {
			continue
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 100))
		rep, err := e.fn()
		fmt.Fprint(stdout, rep)
		fmt.Fprintln(stdout)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			status = 1
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 2
		}
	}
	return status
}
