// Package benchcmp compares two benchreport JSON records (BENCH_*.json)
// and flags regressions in the deterministic counter metrics. Wall-clock
// fields (elapsed_ms, queries_per_sec, speedup_x) are deliberately ignored:
// they vary with machine load, while distance-eval and parse counters are
// exact replays of the same seeded workload and move only when the code
// changes. The CI bench-drift gate (benchreport -compare) is built on this
// package.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// direction says which way a metric is allowed to move.
type direction int

const (
	dirIgnore      direction = iota
	dirLowerBetter           // counters of work done: growth is a regression
	dirHigherBetter
)

// scaleDependent marks metrics that only compare meaningfully when both
// records ran the same workload size (the top-level "queries" field).
var gated = map[string]struct {
	dir   direction
	scale bool
}{
	"distance_evals": {dirLowerBetter, true},
	"full_parses":    {dirLowerBetter, true},
	"misses":         {dirLowerBetter, true},
	"cache_hits":     {dirHigherBetter, true},
	"eval_ratio":     {dirHigherBetter, false},
	"parse_ratio":    {dirHigherBetter, false},
	"hit_ratio":      {dirHigherBetter, false},
	// The flat distance kernel's structural-equality early exit: the ratio is
	// a deterministic replay of the seeded pair schedule, so a drop means the
	// kernel stopped recognising equal constraint lists.
	"early_exit_ratio": {dirHigherBetter, false},
	// Semantic-cache v2: the budget curve is a deterministic replay, so the
	// hit ratio at the half-residency budget moves only with admission code.
	"hit_ratio_at_half_budget": {dirHigherBetter, false},
}

// zeroGated metrics are correctness counters: once a record establishes zero
// (no oracle mismatches), any successor record must report the key — at ANY
// workload scale — and report it as zero. A single mismatch is one too many
// no matter how few queries ran, so these are exempt from both tol and the
// scale gate.
var zeroGated = map[string]bool{
	"oracle_failed":     true,
	"oracle_mismatches": true,
	"verify_failed":     true,
}

// Finding is one compared metric.
type Finding struct {
	Path      string  // dotted path, e.g. "after_pivot_index.distance_evals"
	Old       float64 // NaN when the metric is missing from the old record
	New       float64 // NaN when the metric is missing from the new record
	Delta     float64 // fractional change in the worse direction (>0 = worse)
	Regressed bool
	Note      string // extra context ("metric disappeared", "scale mismatch: skipped")
}

// Report is the outcome of comparing two records.
type Report struct {
	Findings []Finding
	Skipped  []string // gated metrics not compared (scale mismatch)
}

// Regressions filters the findings down to the failures.
func (r *Report) Regressions() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Regressed {
			out = append(out, f)
		}
	}
	return out
}

// String renders a human-readable comparison table.
func (r *Report) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		status := "ok"
		if f.Regressed {
			status = "REGRESSION"
		}
		fmt.Fprintf(&b, "%-12s %-45s old=%-14s new=%-14s delta=%+.2f%%",
			status, f.Path, fmtVal(f.Old), fmtVal(f.New), 100*f.Delta)
		if f.Note != "" {
			fmt.Fprintf(&b, "  (%s)", f.Note)
		}
		b.WriteByte('\n')
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(&b, "%-12s %-45s (scale mismatch: skipped)\n", "skipped", s)
	}
	return b.String()
}

func fmtVal(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4f", v)
}

// Compare parses two benchreport JSON records and checks every gated metric
// in the old record against the new one. tol is the allowed fractional
// drift in the worse direction (0.15 = 15%). Booleans named identical_*
// must not flip true -> false regardless of tol.
func Compare(oldJSON, newJSON []byte, tol float64) (*Report, error) {
	return compare(oldJSON, newJSON, tol, false)
}

// CompareIdentity checks only the scale-independent correctness gates:
// identical_* booleans and the zero-stay-zero counters. Counters and ratios
// are ignored entirely, so a reduced-scale record (a per-PR quick run)
// compares cleanly against the committed full-scale baseline while still
// failing the moment an optimised path stops reproducing the baseline
// result.
func CompareIdentity(oldJSON, newJSON []byte) (*Report, error) {
	return compare(oldJSON, newJSON, 0, true)
}

func compare(oldJSON, newJSON []byte, tol float64, identityOnly bool) (*Report, error) {
	var oldDoc, newDoc map[string]any
	if err := json.Unmarshal(oldJSON, &oldDoc); err != nil {
		return nil, fmt.Errorf("old record: %w", err)
	}
	if err := json.Unmarshal(newJSON, &newDoc); err != nil {
		return nil, fmt.Errorf("new record: %w", err)
	}
	oldFlat, oldBool := flatten(oldDoc)
	newFlat, newBool := flatten(newDoc)

	// Counters only compare at equal workload scale; ratios always do.
	sameScale := true
	if oq, ok := oldFlat["queries"]; ok {
		nq, nok := newFlat["queries"]
		sameScale = nok && nq == oq
	}

	rep := &Report{}
	paths := make([]string, 0, len(oldFlat))
	for p := range oldFlat {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	for _, p := range paths {
		oldV := oldFlat[p]
		newV, present := newFlat[p]
		if zeroGated[basename(p)] && oldV == 0 {
			// Zero-stay-zero: scale-independent, tolerance-free.
			f := Finding{Path: p, Old: 0, New: newV}
			switch {
			case !present:
				f.New, f.Delta, f.Regressed, f.Note = math.NaN(), math.Inf(1), true, "correctness counter disappeared"
			case newV != 0:
				f.Delta, f.Regressed, f.Note = math.Inf(1), true, "correctness counter left zero"
			}
			rep.Findings = append(rep.Findings, f)
			continue
		}
		if identityOnly {
			continue
		}
		rule, ok := gated[basename(p)]
		if !ok || rule.dir == dirIgnore {
			continue
		}
		if rule.scale && !sameScale {
			if !present {
				// A gated key vanishing is a regression even when the scales
				// differ: the skip list is for values that exist but are not
				// comparable, never for keys the new record stopped reporting.
				rep.Findings = append(rep.Findings, Finding{
					Path: p, Old: oldV, New: math.NaN(),
					Delta: math.Inf(1), Regressed: true,
					Note: "gated key missing from new record (scale mismatch)",
				})
				continue
			}
			rep.Skipped = append(rep.Skipped, p)
			continue
		}
		if !present {
			rep.Findings = append(rep.Findings, Finding{
				Path: p, Old: oldV, New: math.NaN(),
				Delta: math.Inf(1), Regressed: true,
				Note: "metric disappeared",
			})
			continue
		}
		f := Finding{Path: p, Old: oldV, New: newV}
		f.Delta = worseDelta(rule.dir, oldV, newV)
		f.Regressed = f.Delta > tol
		rep.Findings = append(rep.Findings, f)
	}

	// identical_* booleans: a true -> false flip means the optimised path
	// no longer reproduces the baseline result — always a failure.
	boolPaths := make([]string, 0, len(oldBool))
	for p := range oldBool {
		boolPaths = append(boolPaths, p)
	}
	sort.Strings(boolPaths)
	for _, p := range boolPaths {
		if !strings.HasPrefix(basename(p), "identical_") || !oldBool[p] {
			continue
		}
		newB, present := newBool[p]
		f := Finding{Path: p, Old: 1, New: 0}
		switch {
		case !present:
			f.Regressed, f.Delta, f.Note = true, math.Inf(1), "metric disappeared"
		case !newB:
			f.Regressed, f.Delta, f.Note = true, 1, "identity flag flipped to false"
		default:
			f.New = 1
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep, nil
}

// worseDelta returns the fractional change in the direction that hurts:
// positive means the new record is worse, zero or negative means equal or
// improved.
func worseDelta(dir direction, oldV, newV float64) float64 {
	var worse float64
	switch dir {
	case dirLowerBetter:
		worse = newV - oldV
	case dirHigherBetter:
		worse = oldV - newV
	default:
		return 0
	}
	if worse <= 0 {
		return worse / math.Max(math.Abs(oldV), 1)
	}
	if oldV == 0 {
		return math.Inf(1) // work appeared where there was none
	}
	return worse / math.Abs(oldV)
}

func basename(path string) string {
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// flatten walks a decoded JSON document into dotted-path leaf maps, numbers
// and booleans separately.
func flatten(doc map[string]any) (map[string]float64, map[string]bool) {
	nums := map[string]float64{}
	bools := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, child)
			}
		case []any:
			for i, child := range x {
				walk(fmt.Sprintf("%s.%d", prefix, i), child)
			}
		case float64:
			nums[prefix] = x
		case bool:
			bools[prefix] = x
		}
	}
	walk("", doc)
	return nums, bools
}
