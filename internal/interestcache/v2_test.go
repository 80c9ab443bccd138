package interestcache

import (
	"testing"

	"repro/internal/aggregate"
	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/memdb"
)

// budgetCache builds a verifying cache over testDB (or cfg.DB when set)
// without installing anything.
func budgetCache(cfg Config) *Cache {
	if cfg.DB == nil {
		cfg.DB = testDB()
	}
	cfg.Extractor = &extract.Extractor{}
	cfg.Templates = &extract.TemplateCache{}
	cfg.Verify = true
	return New(cfg)
}

func tSummary(id int, iv interval.Interval) *aggregate.Summary {
	return summary(id, []string{"T"}, map[string]interval.Interval{"T.u": iv}, nil)
}

// A T region of k rows costs k rows × 2 numeric cells × 9 bytes.
const tRowBytes = 2 * 9

func TestBudgetExactFit(t *testing.T) {
	// Four rows = 72 bytes; a budget of exactly 72 must keep the region
	// resident, one byte less must demote it to a shadow.
	c := budgetCache(Config{BudgetBytes: 4 * tRowBytes})
	c.Install(1, []*aggregate.Summary{tSummary(1, interval.Closed(5, 8))})
	m := c.Metrics()
	if m.Regions != 1 || m.ShadowRegions != 0 || m.BytesResident != 4*tRowBytes {
		t.Fatalf("exact fit: %+v", m)
	}
	if _, info, err := c.Query("SELECT v FROM T WHERE u >= 5 AND u <= 8"); err != nil || !info.Hit {
		t.Fatalf("hit expected: %+v %v", info, err)
	}

	c = budgetCache(Config{BudgetBytes: 4*tRowBytes - 1})
	c.Install(1, []*aggregate.Summary{tSummary(1, interval.Closed(5, 8))})
	m = c.Metrics()
	if m.Regions != 0 || m.ShadowRegions != 1 || m.BytesResident != 0 {
		t.Fatalf("one byte short: %+v", m)
	}
	if _, info, err := c.Query("SELECT v FROM T WHERE u >= 5 AND u <= 8"); err != nil || info.Hit {
		t.Fatalf("miss expected: %+v %v", info, err)
	}
	if m = c.Metrics(); m.NearMisses != 1 {
		t.Fatalf("shadow near-miss not credited: %+v", m)
	}
	// Re-install: the size is now in the book, so the oversized region is
	// never even materialised.
	c.Install(2, []*aggregate.Summary{tSummary(7, interval.Closed(5, 8))})
	if m = c.Metrics(); m.Regions != 0 || m.ShadowRegions != 1 {
		t.Fatalf("known-oversize re-admitted: %+v", m)
	}
}

func TestProbationAdmitThenEvict(t *testing.T) {
	hot := tSummary(1, interval.Closed(5, 8))
	newcomer := tSummary(2, interval.Closed(11, 14))
	c := budgetCache(Config{BudgetBytes: 8 * tRowBytes})
	c.Install(1, []*aggregate.Summary{hot})
	for i := 0; i < 3; i++ {
		if _, info, err := c.Query("SELECT v FROM T WHERE u >= 5 AND u <= 8"); err != nil || !info.Hit {
			t.Fatalf("warm-up hit %d: %+v %v", i, info, err)
		}
	}
	// Second generation brings a zero-heat newcomer; the budget fits both,
	// and the newcomer is admitted on probation.
	c.Install(2, []*aggregate.Summary{hot, newcomer})
	m := c.Metrics()
	if m.Regions != 2 || m.ProbationAdmits < 1 {
		t.Fatalf("probation admit: %+v", m)
	}
	// Shrinking the budget to one region's bytes must evict the coldest —
	// the newcomer — immediately.
	c.SetBudget(4 * tRowBytes)
	m = c.Metrics()
	if m.Regions != 1 || m.Evicted < 1 || m.PerRegion[0].ID != 1 {
		t.Fatalf("post-shrink: %+v", m)
	}
	if _, info, err := c.Query("SELECT v FROM T WHERE u >= 11 AND u <= 14"); err != nil || info.Hit {
		t.Fatalf("evicted region still serving: %+v %v", info, err)
	}
	if _, info, err := c.Query("SELECT v FROM T WHERE u >= 5 AND u <= 8"); err != nil || !info.Hit {
		t.Fatalf("hot region lost: %+v %v", info, err)
	}
	if m = c.Metrics(); m.NearMisses < 1 || m.VerifyFailed != 0 {
		t.Fatalf("final metrics: %+v", m)
	}
}

func TestHeatCarryThreeGenerations(t *testing.T) {
	// Budget fits one region. Generation 1 admits A (candidate order);
	// near-misses on B's shadow must flip residency at generation 2, and
	// the carried heat must keep B resident through generation 3.
	a := func(id int) *aggregate.Summary { return tSummary(id, interval.Closed(1, 4)) }
	b := func(id int) *aggregate.Summary { return tSummary(id, interval.Closed(11, 14)) }
	qB := "SELECT v FROM T WHERE u >= 11 AND u <= 14"
	c := budgetCache(Config{BudgetBytes: 4 * tRowBytes})

	c.Install(1, []*aggregate.Summary{a(1), b(2)})
	if m := c.Metrics(); m.Regions != 1 || m.PerRegion[0].ID != 1 || m.ShadowRegions != 1 {
		t.Fatalf("gen1: %+v", m)
	}
	for i := 0; i < 3; i++ {
		if _, info, _ := c.Query(qB); info.Hit {
			t.Fatal("gen1: B should be a shadow")
		}
	}

	c.Install(2, []*aggregate.Summary{a(11), b(12)})
	if m := c.Metrics(); m.Regions != 1 || m.PerRegion[0].ID != 12 || m.Evicted != 1 {
		t.Fatalf("gen2: %+v", m)
	}
	if _, info, err := c.Query(qB); err != nil || !info.Hit {
		t.Fatalf("gen2: B hit expected: %+v %v", info, err)
	}

	c.Install(3, []*aggregate.Summary{a(21), b(22)})
	if m := c.Metrics(); m.Regions != 1 || m.PerRegion[0].ID != 22 {
		t.Fatalf("gen3: %+v", m)
	}
	if _, info, err := c.Query(qB); err != nil || !info.Hit {
		t.Fatalf("gen3: B hit expected: %+v %v", info, err)
	}
	if m := c.Metrics(); m.VerifyFailed != 0 {
		t.Fatalf("verify failures: %+v", m)
	}
}

func TestAggSingleRegion(t *testing.T) {
	// HAVING statements are rejected by safeShape but served by the agg
	// path: containment on the WHERE-only area, full statement executed on
	// the region store.
	c := budgetCache(Config{})
	c.Install(1, []*aggregate.Summary{tSummary(1, interval.Closed(0, 100))})
	q := "SELECT u, COUNT(*) FROM T WHERE u >= 2 AND u <= 9 GROUP BY u HAVING COUNT(*) >= 1"
	rs, info, err := c.Query(q)
	if err != nil || !info.Hit || info.Path != "agg" {
		t.Fatalf("agg hit expected: %+v %v", info, err)
	}
	if len(rs.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rs.Rows))
	}
	// Second time through the cached shape class.
	if _, info, err := c.Query(q); err != nil || info.Path != "agg" {
		t.Fatalf("second agg hit: %+v %v", info, err)
	}
	m := c.Metrics()
	if m.AggHits != 2 || m.VerifyFailed != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// Installing clusters whose identities are unchanged carries every region
// with its store; a region whose box moved is the only one rebuilt, and
// every hit still equals direct execution.
func TestInstallCarriesUnchangedRegions(t *testing.T) {
	c := budgetCache(Config{})
	clusters := func(id0 int, tHi float64) []*aggregate.Summary {
		return []*aggregate.Summary{
			tSummary(id0, interval.Closed(5, tHi)),
			tSummary(id0+1, interval.Closed(11, 14)),
			summary(id0+2, []string{"S"}, map[string]interval.Interval{"S.u": interval.Closed(1, 10)},
				map[string][]string{"S.w": {"a", "b"}}),
		}
	}
	stores := func() map[string]*memdb.DB {
		out := map[string]*memdb.DB{}
		for _, r := range c.Regions() {
			out[r.identity] = r.store
		}
		return out
	}
	queries := []string{
		"SELECT v FROM T WHERE u >= 5 AND u <= 8",
		"SELECT v FROM T WHERE u >= 11 AND u <= 14",
		"SELECT u FROM S WHERE u BETWEEN 2 AND 9 AND w = 'a'",
	}
	// Query i is served by cluster id0+i of generation gen.
	hitAll := func(gen int64, id0 int) {
		t.Helper()
		for i, q := range queries {
			if _, info, err := c.Query(q); err != nil || !info.Hit || info.Generation != gen || info.RegionID != id0+i {
				t.Fatalf("gen %d %q: %+v %v", gen, q, info, err)
			}
		}
	}

	c.Install(1, clusters(1, 8))
	hitAll(1, 1)
	first := stores()
	carried0 := prefetchCarriedTotal.Value()

	// Same areas re-mined under new cluster IDs: every region is carried.
	c.Install(2, clusters(11, 8))
	if m := c.Metrics(); m.Reused != 3 || m.Regions != 3 || m.BytesResident != 8*tRowBytes+7*(9+2) {
		t.Fatalf("carry all: %+v", m)
	}
	if d := prefetchCarriedTotal.Value() - carried0; d != 3 {
		t.Fatalf("carried counter moved by %d, want 3", d)
	}
	for id, st := range stores() {
		if first[id] != st {
			t.Fatalf("region %s rebuilt, want carried", id)
		}
	}
	hitAll(2, 11)

	// One box moves: only that region is rebuilt.
	c.Install(3, clusters(21, 9))
	if m := c.Metrics(); m.Reused != 5 || m.Regions != 3 {
		t.Fatalf("carry two: %+v", m)
	}
	rebuilt := 0
	for id, st := range stores() {
		if prev, ok := first[id]; !ok {
			rebuilt++
		} else if prev != st {
			t.Fatalf("region %s rebuilt, want carried", id)
		}
	}
	if rebuilt != 1 {
		t.Fatalf("%d regions rebuilt, want 1", rebuilt)
	}
	hitAll(3, 21)
	if m := c.Metrics(); m.VerifyChecked != 3*int64(len(queries)) || m.VerifyFailed != 0 {
		t.Fatalf("oracle: %+v", m)
	}
}
