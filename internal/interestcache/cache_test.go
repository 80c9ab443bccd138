package interestcache

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/memdb"
	"repro/internal/schema"
	"repro/internal/sqlparser"
)

// testDB builds a two-table database:
//
//	T(u, v):  u = 1..20, v = 10*u
//	S(u, w):  u = 1..10, w cycles 'a','b','c'
func testDB() *memdb.DB {
	db := memdb.New(nil)
	db.CreateTable("T", "u", "v")
	db.CreateTable("S", "u", "w")
	for i := 1; i <= 20; i++ {
		db.Insert("T", memdb.N(float64(i)), memdb.N(float64(10*i)))
	}
	labels := []string{"a", "b", "c"}
	for i := 1; i <= 10; i++ {
		db.Insert("S", memdb.N(float64(i)), memdb.S(labels[i%3]))
	}
	return db
}

func summary(id int, rels []string, dims map[string]interval.Interval, cat map[string][]string) *aggregate.Summary {
	box := interval.NewBox()
	for d, iv := range dims {
		box.Set(d, iv)
	}
	return &aggregate.Summary{ID: id, Relations: rels, Box: box, Categorical: cat}
}

func testCache(t *testing.T, verify bool, clusters ...*aggregate.Summary) *Cache {
	t.Helper()
	db := testDB()
	c := New(Config{
		DB:        db,
		Extractor: &extract.Extractor{},
		Templates: &extract.TemplateCache{},
		Verify:    verify,
	})
	c.Install(1, clusters)
	return c
}

func TestRegionPrefetch(t *testing.T) {
	db := testDB()
	r := newRegion(db, 7, summary(3, []string{"T"},
		map[string]interval.Interval{"T.u": interval.Closed(5, 8)}, nil))
	if r.ID != 3 || r.Generation != 7 {
		t.Fatalf("region identity: %+v", r)
	}
	if r.Rows != 4 {
		t.Fatalf("rows = %d, want 4", r.Rows)
	}
	// 4 rows × 2 numeric cells × (8 bytes + kind tag)
	if r.Bytes != 4*2*9 {
		t.Fatalf("bytes = %d, want %d", r.Bytes, 4*2*9)
	}
	// The store shares the source rows: its rows are exactly the source
	// rows with u in [5,8], in source order, each the source's own slice
	// (same backing array), not a copy.
	var want [][]memdb.Value
	for _, row := range db.Table("T").Rows {
		if u := row[0].Num; u >= 5 && u <= 8 {
			want = append(want, row)
		}
	}
	rows := r.store.Table("T").Rows
	if len(rows) != len(want) {
		t.Fatalf("store holds %d rows, filter admits %d", len(rows), len(want))
	}
	for i, row := range rows {
		if &row[0] != &want[i][0] {
			t.Fatalf("store row %d is not the %d-th admitted source row", i, i)
		}
	}
	if tables := r.store.Tables(); len(tables) != 1 {
		t.Fatalf("store tables %v, want only T", tables)
	}
}

func TestRegionContainsCategorical(t *testing.T) {
	db := testDB()
	r := newRegion(db, 1, summary(1, []string{"S"}, nil,
		map[string][]string{"S.w": {"a", "b"}}))
	ex := &extract.Extractor{}
	area := func(sql string) *extract.AccessArea {
		t.Helper()
		a, err := ex.ExtractSQL(sql)
		if err != nil {
			t.Fatalf("extract %q: %v", sql, err)
		}
		return a
	}
	if !r.Contains(area("SELECT u FROM S WHERE w = 'A'")) {
		t.Error("case-insensitive value subset must be contained")
	}
	if r.Contains(area("SELECT u FROM S WHERE w = 'c'")) {
		t.Error("value outside the region's list must not be contained")
	}
	if r.Contains(area("SELECT u FROM S WHERE u = 1")) {
		t.Error("query not pinning the categorical column must miss")
	}
}

func TestRegionContainsSkipsForeignDims(t *testing.T) {
	db := testDB()
	// Region over both tables, constraining each; a query reading only T
	// must ignore the S-side constraints entirely.
	r := newRegion(db, 1, summary(1, []string{"S", "T"},
		map[string]interval.Interval{
			"T.u": interval.Closed(0, 100),
			"S.u": interval.Closed(2, 3),
		},
		map[string][]string{"S.w": {"a"}}))
	ex := &extract.Extractor{}
	a, err := ex.ExtractSQL("SELECT v FROM T WHERE u BETWEEN 5 AND 6")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(a) {
		t.Error("dims on unreferenced relations must not block containment")
	}
}

func TestIndexLookupMatchesBruteForce(t *testing.T) {
	db := testDB()
	var regions []*Region
	mk := func(id int, lo, hi float64) {
		regions = append(regions, newRegion(db, 1, summary(id, []string{"T"},
			map[string]interval.Interval{"T.u": interval.Closed(lo, hi)}, nil)))
	}
	mk(1, 0, 21)  // whole table
	mk(2, 3, 9)   // tight
	mk(3, 5, 14)  // mid
	mk(4, 16, 19) // high band
	regions = append(regions, newRegion(db, 1, summary(5, []string{"S"}, nil, nil)))
	idx := buildIndex(regions)

	ex := &extract.Extractor{}
	for _, q := range []string{
		"SELECT v FROM T WHERE u >= 4 AND u <= 8",
		"SELECT v FROM T WHERE u = 17",
		"SELECT v FROM T WHERE u >= 6 AND u <= 13",
		"SELECT v FROM T",
		"SELECT u FROM S",
		"SELECT v FROM T WHERE u <= 2",
	} {
		a, err := ex.ExtractSQL(q)
		if err != nil {
			t.Fatalf("extract %q: %v", q, err)
		}
		var want *Region
		for _, r := range regions {
			if r.Contains(a) && (want == nil || r.Rows < want.Rows ||
				(r.Rows == want.Rows && r.ID < want.ID)) {
				want = r
			}
		}
		got := idx.lookup(newQueryShape(a))
		switch {
		case want == nil && got != nil:
			t.Errorf("%s: index found region %d, brute force none", q, got.ID)
		case want != nil && got == nil:
			t.Errorf("%s: index found nothing, brute force region %d", q, want.ID)
		case want != nil && got.ID != want.ID:
			t.Errorf("%s: index picked %d, want %d", q, got.ID, want.ID)
		}
	}
}

func TestQueryHitAndMiss(t *testing.T) {
	c := testCache(t, true, summary(1, []string{"T"},
		map[string]interval.Interval{"T.u": interval.Closed(3, 9)}, nil))
	rs, info, err := c.Query("SELECT v FROM T WHERE u >= 4 AND u <= 6")
	if err != nil || !info.Hit || info.RegionID != 1 || info.Generation != 1 {
		t.Fatalf("hit expected: info=%+v err=%v", info, err)
	}
	if len(rs.Rows) != 3 || rs.Rows[0][0].Num != 40 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// Outside the region: identical result via fall-through.
	rs, info, err = c.Query("SELECT v FROM T WHERE u >= 10 AND u <= 12")
	if err != nil || info.Hit || info.Reason != "no-region" {
		t.Fatalf("miss expected: info=%+v err=%v", info, err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("miss rows = %v", rs.Rows)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.VerifyFailed != 0 || m.BytesServed == 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if pr := c.PerRegion(); len(pr) != 1 || pr[0].Hits != 1 {
		t.Fatalf("per-region = %+v", pr)
	}
}

// A statement a containing region's store rejects misses. When direct
// execution rejects it too (a MySQL LIMIT under StrictTSQL), the miss
// names the statement, not the store, and returns the direct error.
func TestQueryExecErrorNamesStatement(t *testing.T) {
	c := New(Config{
		DB:        testDB(),
		Extractor: &extract.Extractor{},
		Templates: &extract.TemplateCache{},
		Exec:      memdb.ExecOptions{StrictTSQL: true},
	})
	c.Install(1, []*aggregate.Summary{summary(1, []string{"T"}, nil, nil)})
	if _, info, err := c.Query("SELECT v FROM T"); err != nil || !info.Hit {
		t.Fatalf("whole-table read: info=%+v err=%v, want a hit", info, err)
	}
	_, info, err := c.Query("SELECT v FROM T LIMIT 5")
	if err == nil || info.Hit || info.Reason != "exec-error" {
		t.Fatalf("LIMIT under StrictTSQL: info=%+v err=%v, want an exec-error miss", info, err)
	}
}

func TestQueryTemplateReuse(t *testing.T) {
	c := testCache(t, true, summary(1, []string{"T"},
		map[string]interval.Interval{"T.u": interval.Closed(0, 100)}, nil))
	for i, q := range []string{
		"SELECT v FROM T WHERE u = 5",
		"SELECT v FROM T WHERE u = 9", // same shape, different literal
	} {
		if _, info, err := c.Query(q); err != nil || !info.Hit {
			t.Fatalf("query %d: info=%+v err=%v", i, info, err)
		}
	}
	if c.cfg.Templates.Len() != 1 {
		t.Fatalf("template cache len = %d, want 1", c.cfg.Templates.Len())
	}
	if m := c.Metrics(); m.VerifyFailed != 0 {
		t.Fatalf("verify failures: %+v", m)
	}
}

// Query extracts without observing: a Config.Extractor carrying a stats
// registry leaves that registry untouched on every lookup path — first
// sight, the memo, a template rebind, a refused rebind's fallback, an
// unsafe shape and the aggregate path — and the caller's extractor keeps
// its registry.
func TestQueryLeavesRegistryUntouched(t *testing.T) {
	reg := schema.NewStats()
	ex := &extract.Extractor{Stats: reg}
	c := New(Config{DB: testDB(), Extractor: ex, Templates: &extract.TemplateCache{}, Verify: true})
	c.Install(1, []*aggregate.Summary{
		summary(1, []string{"T"}, map[string]interval.Interval{"T.u": interval.Closed(0, 100)}, nil),
		summary(2, []string{"S"}, nil, map[string][]string{"S.w": {"a", "b", "c"}}),
	})
	before, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	gen := reg.Generation()
	for _, q := range []string{
		"SELECT v FROM T WHERE u = 5",
		"SELECT v FROM T WHERE u = 5",
		"SELECT v FROM T WHERE u = 9999",
		"SELECT u FROM S WHERE w LIKE 'a'",
		"SELECT u FROM S WHERE w LIKE 'zz%'",
		"SELECT x.u FROM (SELECT u FROM T WHERE u < -7) x",
		"SELECT u FROM T WHERE u > -40 GROUP BY u HAVING COUNT(*) > 0",
	} {
		if _, _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	after, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if reg.Generation() != gen || string(after) != string(before) {
		t.Fatalf("queries wrote the registry: generation %d → %d\n  before %s\n  after  %s", gen, reg.Generation(), before, after)
	}
	if ex.Stats != reg {
		t.Fatal("New changed the caller's extractor")
	}
	if m := c.Metrics(); m.Hits == 0 || m.VerifyFailed != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestQueryRejectsUnsafeShapes(t *testing.T) {
	c := testCache(t, true, summary(1, []string{"T"},
		map[string]interval.Interval{"T.u": interval.Closed(0, 100)}, nil))
	// HAVING MAX maps to a row-level bound on contributing rows only; the
	// restricted store would change group membership. Must not hit.
	q := "SELECT u FROM T WHERE u > 0 GROUP BY u HAVING MAX(v) > 50"
	_, info, err := c.Query(q)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if info.Hit {
		t.Fatal("HAVING query served from a restricted store")
	}
	// Second time through the template path: still rejected.
	if _, info, _ = c.Query(q); info.Hit {
		t.Fatal("HAVING query hit via template path")
	}
	if m := c.Metrics(); m.VerifyFailed != 0 {
		t.Fatalf("verify failures: %+v", m)
	}
}

func TestSafeShape(t *testing.T) {
	cases := []struct {
		sql  string
		want bool
	}{
		{"SELECT u FROM T WHERE v > 3", true},
		{"SELECT u, COUNT(*) FROM T GROUP BY u", true},
		{"SELECT u FROM T GROUP BY u HAVING COUNT(*) > 2", false},
		{"SELECT u FROM T UNION SELECT u FROM S GROUP BY u HAVING MAX(u) > 1", false},
		{"SELECT u FROM T WHERE u IN (SELECT u FROM S GROUP BY u HAVING COUNT(*) > 1)", false},
		{"SELECT u FROM T WHERE EXISTS (SELECT 1 FROM S WHERE S.u = T.u)", true},
		{"SELECT x.u FROM (SELECT u FROM T) x", false},
		{"SELECT u FROM T WHERE v = (SELECT MAX(v) FROM T)", true},
	}
	for _, cse := range cases {
		stmt, err := sqlparser.Parse(cse.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", cse.sql, err)
		}
		sel, ok := stmt.(*sqlparser.SelectStatement)
		if !ok {
			t.Fatalf("not a select: %q", cse.sql)
		}
		if got := safeShape(sel); got != cse.want {
			t.Errorf("safeShape(%q) = %v, want %v", cse.sql, got, cse.want)
		}
	}
}

func TestEncodeResultSetDistinguishes(t *testing.T) {
	a := &memdb.ResultSet{Columns: []string{"x"}, Rows: [][]memdb.Value{{memdb.N(1)}}}
	b := &memdb.ResultSet{Columns: []string{"x"}, Rows: [][]memdb.Value{{memdb.N(2)}}}
	c := &memdb.ResultSet{Columns: []string{"x"}, Rows: [][]memdb.Value{{memdb.S("1")}}}
	d := &memdb.ResultSet{Columns: []string{"x"}, Rows: [][]memdb.Value{{memdb.NullValue()}}}
	enc := map[string]bool{}
	for _, rs := range []*memdb.ResultSet{a, b, c, d} {
		enc[string(EncodeResultSet(rs))] = true
	}
	if len(enc) != 4 {
		t.Fatalf("encodings collide: %d distinct of 4", len(enc))
	}
	a2 := &memdb.ResultSet{Columns: []string{"x"}, Rows: [][]memdb.Value{{memdb.N(1)}}}
	if string(EncodeResultSet(a)) != string(EncodeResultSet(a2)) {
		t.Fatal("equal result sets must encode identically")
	}
}

// TestInstallAtomic hammers Query from several goroutines while the region
// set is re-installed concurrently. Run under -race (make racecheck). Each
// goroutine must observe (a) only generations that were actually installed,
// (b) non-decreasing generations (a swapped-out set never comes back), and
// (c) zero oracle failures — a retired region set never answers.
func TestInstallAtomic(t *testing.T) {
	db := testDB()
	c := New(Config{
		DB:        db,
		Extractor: &extract.Extractor{},
		Templates: &extract.TemplateCache{},
		Verify:    true,
	})
	setA := []*aggregate.Summary{summary(1, []string{"T"},
		map[string]interval.Interval{"T.u": interval.Closed(0, 100)}, nil)}
	setB := []*aggregate.Summary{summary(2, []string{"T"},
		map[string]interval.Interval{"T.u": interval.Closed(5, 8)}, nil)}
	c.Install(1, setA)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastGen := int64(0)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, info, err := c.Query("SELECT v FROM T WHERE u >= 6 AND u <= 7")
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if info.Generation < lastGen {
					t.Errorf("generation went backwards: %d after %d", info.Generation, lastGen)
					return
				}
				lastGen = info.Generation
				if info.Reason == "verify-failed" {
					t.Error("oracle failure during install churn")
					return
				}
			}
		}()
	}
	for gen := int64(2); gen <= 60; gen++ {
		if gen%2 == 0 {
			c.Install(gen, setB)
		} else {
			c.Install(gen, setA)
		}
	}
	close(stop)
	wg.Wait()
	if m := c.Metrics(); m.VerifyFailed != 0 {
		t.Fatalf("verify failures: %+v", m)
	}
}
