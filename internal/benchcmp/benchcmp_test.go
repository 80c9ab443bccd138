package benchcmp

import (
	"strings"
	"testing"
)

// baseline mirrors the shape of the checked-in BENCH_clustering.json.
const baseline = `{
  "queries": 20000,
  "seed": 42,
  "before_brute_force": {
    "elapsed_ms": 31017.2,
    "distance_evals": 51379824,
    "cache_hits": 0
  },
  "after_pivot_index": {
    "elapsed_ms": 15706.4,
    "distance_evals": 16716455,
    "cache_hits": 16627311
  },
  "eval_ratio": 3.0736,
  "speedup_x": 1.9748,
  "identical_clusters": true
}`

func TestIdenticalRecordsPass(t *testing.T) {
	rep, err := Compare([]byte(baseline), []byte(baseline), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("identical records regressed: %+v", regs)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("identical records compared zero metrics")
	}
}

// The acceptance fixture: a synthetic 20% counter regression must fail at
// tol 0.15.
func TestTwentyPercentRegressionFails(t *testing.T) {
	worse := strings.Replace(baseline,
		`"distance_evals": 16716455,
    "cache_hits": 16627311`,
		`"distance_evals": 20059746,
    "cache_hits": 16627311`, 1)
	rep, err := Compare([]byte(baseline), []byte(worse), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the distance_evals one", regs)
	}
	if regs[0].Path != "after_pivot_index.distance_evals" {
		t.Errorf("regressed path %q", regs[0].Path)
	}
	if regs[0].Delta < 0.19 || regs[0].Delta > 0.21 {
		t.Errorf("delta = %v, want ~0.20", regs[0].Delta)
	}
}

func TestWithinToleranceDriftPasses(t *testing.T) {
	// +10% distance evals at tol 0.15: drift, not a regression.
	worse := strings.Replace(baseline, `"distance_evals": 16716455`,
		`"distance_evals": 18388100`, 1)
	rep, err := Compare([]byte(baseline), []byte(worse), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("10%% drift flagged at tol 0.15: %+v", regs)
	}
}

func TestHigherBetterDirection(t *testing.T) {
	// cache_hits dropping 30% is a regression; rising 30% is not.
	drop := strings.Replace(baseline, `"cache_hits": 16627311`,
		`"cache_hits": 11639117`, 1)
	rep, err := Compare([]byte(baseline), []byte(drop), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Regressions() {
		if f.Path == "after_pivot_index.cache_hits" {
			found = true
		}
	}
	if !found {
		t.Errorf("30%% cache_hits drop not flagged: %+v", rep.Regressions())
	}

	rise := strings.Replace(baseline, `"distance_evals": 16716455`,
		`"distance_evals": 1671645`, 1)
	rep, err = Compare([]byte(baseline), []byte(rise), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %+v", regs)
	}
}

func TestTimingFieldsIgnored(t *testing.T) {
	// 10x slower wall clock must not fail the gate: timings are noise.
	slow := strings.Replace(baseline, `"elapsed_ms": 15706.4`,
		`"elapsed_ms": 157064.0`, 1)
	slow = strings.Replace(slow, `"speedup_x": 1.9748`, `"speedup_x": 0.2`, 1)
	rep, err := Compare([]byte(baseline), []byte(slow), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("timing drift flagged: %+v", regs)
	}
}

func TestScaleMismatchSkipsCounters(t *testing.T) {
	small := strings.Replace(baseline, `"queries": 20000`, `"queries": 2000`, 1)
	small = strings.Replace(small, `"distance_evals": 16716455`,
		`"distance_evals": 99999999`, 1)
	rep, err := Compare([]byte(baseline), []byte(small), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("cross-scale counters compared: %+v", regs)
	}
	if len(rep.Skipped) == 0 {
		t.Error("scale mismatch reported no skipped counters")
	}
}

func TestIdentityFlagFlipFails(t *testing.T) {
	flip := strings.Replace(baseline, `"identical_clusters": true`,
		`"identical_clusters": false`, 1)
	rep, err := Compare([]byte(baseline), []byte(flip), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Path != "identical_clusters" {
		t.Fatalf("identity flip not flagged: %+v", regs)
	}
}

func TestMissingMetricFails(t *testing.T) {
	gone := strings.Replace(baseline, `"eval_ratio": 3.0736,`, ``, 1)
	rep, err := Compare([]byte(baseline), []byte(gone), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Regressions() {
		if f.Path == "eval_ratio" && f.Note == "metric disappeared" {
			found = true
		}
	}
	if !found {
		t.Errorf("dropped metric not flagged: %+v", rep.Regressions())
	}
}

func TestBadJSONErrors(t *testing.T) {
	if _, err := Compare([]byte("{"), []byte(baseline), 0.15); err == nil {
		t.Error("truncated old record accepted")
	}
	if _, err := Compare([]byte(baseline), []byte("nope"), 0.15); err == nil {
		t.Error("garbage new record accepted")
	}
}

func TestScaleMismatchMissingGatedKeyFails(t *testing.T) {
	// The historical bug: at a scale mismatch, a gated key missing from the
	// new record slipped into the skip list and the gate passed silently. A
	// vanished key must fail regardless of scale.
	small := strings.Replace(baseline, `"queries": 20000`, `"queries": 2000`, 1)
	small = strings.Replace(small, `"distance_evals": 16716455,`, ``, 1)
	rep, err := Compare([]byte(baseline), []byte(small), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Regressions() {
		if f.Path == "after_pivot_index.distance_evals" {
			found = true
			if !strings.Contains(f.Note, "missing") {
				t.Errorf("note = %q", f.Note)
			}
		}
	}
	if !found {
		t.Fatalf("missing gated key at scale mismatch not flagged: %+v", rep.Regressions())
	}
	for _, s := range rep.Skipped {
		if s == "after_pivot_index.distance_evals" {
			t.Error("missing key also listed as skipped")
		}
	}
}

const semBaseline = `{
  "queries": 20000,
  "verify_failed": 0,
  "hit_ratio": 0.87,
  "hit_ratio_at_half_budget": 0.80,
  "identical_single_region": true,
  "identical_agg": true
}`

func TestZeroStayZeroAcrossScales(t *testing.T) {
	// verify_failed leaving zero fails even at a different workload scale
	// and within any tolerance.
	bad := strings.Replace(semBaseline, `"queries": 20000`, `"queries": 500`, 1)
	bad = strings.Replace(bad, `"verify_failed": 0`, `"verify_failed": 1`, 1)
	rep, err := Compare([]byte(semBaseline), []byte(bad), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Regressions() {
		if f.Path == "verify_failed" && strings.Contains(f.Note, "left zero") {
			found = true
		}
	}
	if !found {
		t.Fatalf("verify_failed=1 not flagged: %+v", rep.Regressions())
	}

	gone := strings.Replace(semBaseline, `"verify_failed": 0,`, ``, 1)
	rep, err = Compare([]byte(semBaseline), []byte(gone), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, f := range rep.Regressions() {
		if f.Path == "verify_failed" && strings.Contains(f.Note, "disappeared") {
			found = true
		}
	}
	if !found {
		t.Fatalf("vanished verify_failed not flagged: %+v", rep.Regressions())
	}
}

func TestCompareIdentityIgnoresCountersGatesBooleans(t *testing.T) {
	// A quick reduced-scale run: every counter and ratio differs wildly, but
	// identity booleans hold and zero-gates hold — must pass.
	quick := strings.Replace(semBaseline, `"queries": 20000`, `"queries": 500`, 1)
	quick = strings.Replace(quick, `"hit_ratio": 0.87`, `"hit_ratio": 0.10`, 1)
	quick = strings.Replace(quick, `"hit_ratio_at_half_budget": 0.80`, `"hit_ratio_at_half_budget": 0.05`, 1)
	rep, err := CompareIdentity([]byte(semBaseline), []byte(quick))
	if err != nil {
		t.Fatal(err)
	}
	if regs := rep.Regressions(); len(regs) != 0 {
		t.Fatalf("identity compare gated a counter: %+v", regs)
	}

	// But an identity boolean flipping still fails.
	flip := strings.Replace(quick, `"identical_agg": true`, `"identical_agg": false`, 1)
	rep, err = CompareIdentity([]byte(semBaseline), []byte(flip))
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Path != "identical_agg" {
		t.Fatalf("identity flip not flagged: %+v", regs)
	}

	// And so does a zero-gate breach.
	bad := strings.Replace(quick, `"verify_failed": 0`, `"verify_failed": 3`, 1)
	rep, err = CompareIdentity([]byte(semBaseline), []byte(bad))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions()) != 1 {
		t.Fatalf("zero-gate breach in identity mode: %+v", rep.Regressions())
	}
}
