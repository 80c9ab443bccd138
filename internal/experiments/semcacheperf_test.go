package experiments

import "testing"

// A small-scale end-to-end run of the E13+E18 harness: the oracle must
// hold, the workload must hit, both cache rungs (single, agg) must actually
// serve traffic, and the budget curve must show residency bounded by each
// budget.
func TestRunSemCachePerf(t *testing.T) {
	if testing.Short() {
		t.Skip("semcacheperf is slow")
	}
	res, err := RunSemCachePerf(1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleFailed != 0 {
		t.Fatalf("oracle failures: %+v", res)
	}
	if res.OracleChecked == 0 || res.Hits == 0 || res.Regions == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if res.HitRatio < 0.5 {
		t.Errorf("hit ratio %.3f below the 0.5 acceptance floor", res.HitRatio)
	}
	if res.StaleHitRatio > res.FreshHitRatio {
		t.Errorf("stale regions out-hit fresh ones: stale %.3f, fresh %.3f",
			res.StaleHitRatio, res.FreshHitRatio)
	}
	if !res.IdenticalSingleRegion || !res.IdenticalAgg {
		t.Errorf("identity gates not all true: single=%v agg=%v (agg_hits=%d of %d probes)",
			res.IdenticalSingleRegion, res.IdenticalAgg, res.AggHits, res.AggProbes)
	}
	if len(res.BudgetCurve) != 3 {
		t.Fatalf("budget curve has %d points, want 3", len(res.BudgetCurve))
	}
	for _, pt := range res.BudgetCurve {
		if pt.BytesResident > pt.BudgetBytes {
			t.Errorf("budget point %d: resident %d exceeds budget", pt.BudgetBytes, pt.BytesResident)
		}
		if pt.Hits == 0 {
			t.Errorf("budget point %d: no hits", pt.BudgetBytes)
		}
	}
	if res.HitRatioAtHalfBudget < 0.70 {
		t.Errorf("hit ratio at half budget %.3f below the 0.70 acceptance floor",
			res.HitRatioAtHalfBudget)
	}
	if res.Report == "" {
		t.Error("empty report")
	}
}
