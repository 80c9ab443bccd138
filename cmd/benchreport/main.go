// Command benchreport regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic SkyServer substrate and prints a
// paper-vs-measured comparison. See DESIGN.md §4 for the experiment index.
//
// Usage:
//
//	benchreport [-scale 20000] [-seed 42] [-exp all|list|<experiment>]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// `-exp list` prints the available experiments with one-line descriptions.
// -cpuprofile/-memprofile capture stdlib pprof profiles of the selected
// experiments. The exit status is 2 on a usage error (bad flag, unknown
// experiment).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// experiment pairs a selectable id with a one-line description (shown by
// `-exp list`) and the closure that runs it and returns its report.
type experiment struct {
	name string
	desc string
	fn   func() string
}

func listExperiments(w io.Writer, exps []experiment) {
	fmt.Fprintln(w, "available experiments (select with -exp <name>, or -exp all):")
	for _, e := range exps {
		fmt.Fprintf(w, "  %-14s %s\n", e.name, e.desc)
	}
}

// run is main's body with a plain exit code so deferred profile writers run
// before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 20000, "number of log queries to generate")
	seed := fs.Int64("seed", 42, "generator seed")
	exp := fs.String("exp", "all", "experiment id, \"all\", or \"list\" to enumerate them")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
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
			func() string { return getEnv().RunTable1().Report }},
		{"fig1a", "paper Figure 1a: cluster count vs minPts",
			func() string { return getEnv().RunFigure1('a').Report }},
		{"fig1b", "paper Figure 1b: cluster count vs epsilon",
			func() string { return getEnv().RunFigure1('b').Report }},
		{"fig1c", "paper Figure 1c: clustered-query fraction vs epsilon",
			func() string { return getEnv().RunFigure1('c').Report }},
		{"coverage", "share of the log covered by mined interest areas",
			func() string { return getEnv().RunCoverage().Report }},
		{"olapclus", "OLAP-style rollup over exact extracted areas",
			func() string { return getEnv().RunOLAPClusExact().Report }},
		{"olapclusraw", "OLAP-style rollup over raw (unfiltered) areas",
			func() string { return getEnv().RunOLAPClusRaw().Report }},
		{"efficiency", "extraction + clustering wall-clock efficiency",
			func() string { return getEnv().RunEfficiency().Report }},
		{"requery", "re-query rate: how often users revisit mined areas",
			func() string { return getEnv().RunRequery().Report }},
		{"ablation", "pipeline ablation: drop one stage at a time",
			func() string { return getEnv().RunAblation().Report }},
		{"ablationsigma", "sigma-expansion ablation for approximate areas",
			func() string { return getEnv().RunAblationSigma().Report }},
		{"density", "cluster density profile across the data space",
			func() string { return getEnv().RunDensity().Report }},
		{"scaling", "mining throughput as the log scale grows",
			func() string { return getEnv().RunScaling().Report }},
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

	for _, e := range exps {
		if want != "all" && want != e.name {
			continue
		}
		fmt.Fprintln(stdout, strings.Repeat("=", 100))
		fmt.Fprint(stdout, e.fn())
		fmt.Fprintln(stdout)
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
	return 0
}
