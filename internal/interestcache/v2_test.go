package interestcache

import (
	"testing"

	"repro/internal/aggregate"
	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/memdb"
)

// verifyingCache builds a verifying cache over testDB without installing
// anything.
func verifyingCache() *Cache {
	return New(Config{
		DB:        testDB(),
		Extractor: &extract.Extractor{},
		Templates: &extract.TemplateCache{},
		Verify:    true,
	})
}

func tSummary(id int, iv interval.Interval) *aggregate.Summary {
	return summary(id, []string{"T"}, map[string]interval.Interval{"T.u": iv}, nil)
}

// A T region of k rows costs k rows × 2 numeric cells × 9 bytes.
const tRowBytes = 2 * 9

func TestAggSingleRegion(t *testing.T) {
	// HAVING statements are rejected by safeShape but served by the agg
	// path: containment on the WHERE-only area, full statement executed on
	// the region store.
	c := verifyingCache()
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
	c := verifyingCache()
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
