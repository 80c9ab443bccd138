package memdb

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/interval"
)

// sampleDB builds a small database:
//
//	T(u, v):   (1,10) (2,20) (3,30) (4,40)
//	S(u, w):   (1,'a') (2,'b') (9,'c')
func sampleDB(t *testing.T) *DB {
	t.Helper()
	db := New(nil)
	db.CreateTable("T", "u", "v")
	db.CreateTable("S", "u", "w")
	for _, r := range [][]Value{{N(1), N(10)}, {N(2), N(20)}, {N(3), N(30)}, {N(4), N(40)}} {
		if err := db.Insert("T", r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]Value{{N(1), S("a")}, {N(2), S("b")}, {N(9), S("c")}} {
		if err := db.Insert("S", r...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustExec(t *testing.T, db *DB, q string) *ResultSet {
	t.Helper()
	rs, err := db.ExecuteSQL(q, ExecOptions{})
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return rs
}

func TestSelectWhere(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE v > 15 AND v < 45")
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].Num != 2 {
		t.Errorf("first = %v", rs.Rows[0])
	}
}

func TestSelectStarColumns(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT * FROM T WHERE u = 1")
	if len(rs.Columns) != 2 || rs.Columns[0] != "T.u" {
		t.Errorf("cols = %v", rs.Columns)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][1].Num != 10 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT t.u * 2 + 1 AS x FROM T t WHERE t.u = 3")
	if rs.Columns[0] != "x" || rs.Rows[0][0].Num != 7 {
		t.Errorf("rs = %v %v", rs.Columns, rs.Rows)
	}
}

func TestInnerJoin(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT T.u, S.w FROM T INNER JOIN S ON T.u = S.u")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestLeftOuterJoinPadsNulls(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT T.u, S.w FROM T LEFT JOIN S ON T.u = S.u ORDER BY T.u")
	if len(rs.Rows) != 4 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	// u=3 and u=4 have no S match: w is NULL.
	if rs.Rows[2][1].Kind != Null || rs.Rows[3][1].Kind != Null {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestFullOuterJoin(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT T.u, S.u FROM T FULL OUTER JOIN S ON T.u = S.u")
	// 2 matches + 2 unmatched T + 1 unmatched S = 5.
	if len(rs.Rows) != 5 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestRightOuterJoin(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT T.u, S.u FROM T RIGHT JOIN S ON T.u = S.u")
	// 2 matches + unmatched S row (u=9).
	if len(rs.Rows) != 3 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestNaturalJoin(t *testing.T) {
	db := sampleDB(t)
	// Common column u.
	rs := mustExec(t, db, "SELECT T.v, S.w FROM T NATURAL JOIN S")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestCrossJoin(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT T.u FROM T CROSS JOIN S")
	if len(rs.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rs.Rows))
	}
	rs = mustExec(t, db, "SELECT T.u FROM T, S")
	if len(rs.Rows) != 12 {
		t.Fatalf("comma join rows = %d", len(rs.Rows))
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := New(nil)
	db.CreateTable("G", "k", "v")
	for _, r := range [][]Value{
		{S("a"), N(1)}, {S("a"), N(2)}, {S("b"), N(10)}, {S("b"), N(20)}, {S("b"), N(30)},
	} {
		db.Insert("G", r...)
	}
	rs := mustExec(t, db, "SELECT k, SUM(v), COUNT(*), MIN(v), MAX(v), AVG(v) FROM G GROUP BY k ORDER BY k")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	a := rs.Rows[0]
	if a[1].Num != 3 || a[2].Num != 2 || a[3].Num != 1 || a[4].Num != 2 || a[5].Num != 1.5 {
		t.Errorf("group a = %v", a)
	}
	b := rs.Rows[1]
	if b[1].Num != 60 || b[2].Num != 3 || b[5].Num != 20 {
		t.Errorf("group b = %v", b)
	}
}

func TestHaving(t *testing.T) {
	db := New(nil)
	db.CreateTable("G", "k", "v")
	for _, r := range [][]Value{{S("a"), N(1)}, {S("b"), N(10)}, {S("b"), N(20)}} {
		db.Insert("G", r...)
	}
	rs := mustExec(t, db, "SELECT k FROM G GROUP BY k HAVING SUM(v) > 5")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Str != "b" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestGlobalAggregateOnEmptyResult(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT COUNT(*) FROM T WHERE u > 100")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Num != 0 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	db := New(nil)
	db.CreateTable("D", "v")
	for _, v := range []float64{1, 1, 2, 2, 3} {
		db.Insert("D", N(v))
	}
	rs := mustExec(t, db, "SELECT COUNT(DISTINCT v) FROM D")
	if rs.Rows[0][0].Num != 3 {
		t.Errorf("count distinct = %v", rs.Rows[0][0])
	}
}

func TestDistinctRows(t *testing.T) {
	db := New(nil)
	db.CreateTable("D", "v")
	for _, v := range []float64{1, 1, 2} {
		db.Insert("D", N(v))
	}
	rs := mustExec(t, db, "SELECT DISTINCT v FROM D")
	if len(rs.Rows) != 2 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestOrderByDescAndTop(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT TOP 2 u FROM T ORDER BY u DESC")
	if len(rs.Rows) != 2 || rs.Rows[0][0].Num != 4 || rs.Rows[1][0].Num != 3 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestLimitDialect(t *testing.T) {
	db := sampleDB(t)
	// Lenient mode executes LIMIT like TOP.
	rs := mustExec(t, db, "SELECT u FROM T LIMIT 2")
	if len(rs.Rows) != 2 {
		t.Errorf("rows = %v", rs.Rows)
	}
	// Strict T-SQL mode rejects it the way SkyServer does (§6.6).
	_, err := db.ExecuteSQL("SELECT u FROM T LIMIT 2", ExecOptions{StrictTSQL: true})
	var de *DialectError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DialectError", err)
	}
}

func TestRowLimitError(t *testing.T) {
	db := sampleDB(t)
	_, err := db.ExecuteSQL("SELECT u FROM T", ExecOptions{RowLimit: 3})
	var rle *RowLimitError
	if !errors.As(err, &rle) || rle.Limit != 3 {
		t.Fatalf("err = %v", err)
	}
	// TOP under the cap is fine.
	if _, err := db.ExecuteSQL("SELECT TOP 2 u FROM T", ExecOptions{RowLimit: 3}); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestExistsCorrelated(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE EXISTS (SELECT * FROM S WHERE S.u = T.u)")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT u FROM T WHERE NOT EXISTS (SELECT * FROM S WHERE S.u = T.u)")
	if len(rs.Rows) != 2 {
		t.Fatalf("not exists rows = %v", rs.Rows)
	}
}

func TestInSubquery(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE u IN (SELECT u FROM S)")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestQuantified(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE u > ALL (SELECT u FROM S WHERE u < 3)")
	// S.u < 3: {1, 2}; T.u > all => {3, 4}.
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT u FROM T WHERE u = ANY (SELECT u FROM S)")
	if len(rs.Rows) != 2 {
		t.Fatalf("any rows = %v", rs.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE v = (SELECT MAX(v) FROM T)")
	// Self-reference is fine for the engine (extraction forbids it, the
	// engine does not need to).
	if len(rs.Rows) != 1 || rs.Rows[0][0].Num != 4 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT x.u FROM (SELECT u FROM T WHERE v > 15) AS x WHERE x.u < 4")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestBetweenInLike(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE u BETWEEN 2 AND 3")
	if len(rs.Rows) != 2 {
		t.Fatalf("between rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT u FROM S WHERE w LIKE '_'")
	if len(rs.Rows) != 3 {
		t.Fatalf("like rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT u FROM S WHERE w LIKE 'a%'")
	if len(rs.Rows) != 1 {
		t.Fatalf("like prefix rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT u FROM T WHERE u IN (1, 4)")
	if len(rs.Rows) != 2 {
		t.Fatalf("in rows = %v", rs.Rows)
	}
}

func TestCaseExpr(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT CASE WHEN u < 3 THEN 'small' ELSE 'big' END FROM T ORDER BY u")
	if rs.Rows[0][0].Str != "small" || rs.Rows[3][0].Str != "big" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestNullComparisons(t *testing.T) {
	db := New(nil)
	db.CreateTable("NT", "v")
	db.Insert("NT", NullValue())
	db.Insert("NT", N(1))
	rs := mustExec(t, db, "SELECT v FROM NT WHERE v = 1")
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT v FROM NT WHERE v IS NULL")
	if len(rs.Rows) != 1 {
		t.Errorf("is-null rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT v FROM NT WHERE v <> 1")
	if len(rs.Rows) != 0 {
		t.Errorf("null <> rows = %v", rs.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT ABS(0 - u) FROM T WHERE u = 2")
	if rs.Rows[0][0].Num != 2 {
		t.Errorf("abs = %v", rs.Rows[0][0])
	}
	rs = mustExec(t, db, "SELECT UPPER(w) FROM S WHERE u = 1")
	if rs.Rows[0][0].Str != "A" {
		t.Errorf("upper = %v", rs.Rows[0][0])
	}
}

func TestContentIntervalAndValues(t *testing.T) {
	db := sampleDB(t)
	iv, ok := db.ContentInterval("T.u")
	if !ok || !iv.Equal(interval.Closed(1, 4)) {
		t.Errorf("content = %v %v", iv, ok)
	}
	vals, ok := db.ContentValues("S.w")
	if !ok || len(vals) != 3 || vals[0] != "a" {
		t.Errorf("values = %v %v", vals, ok)
	}
	if _, ok := db.ContentInterval("T.nosuch"); ok {
		t.Error("unknown column should fail")
	}
}

func TestSampleColumn(t *testing.T) {
	db := sampleDB(t)
	s := db.SampleColumn("T.v", 2)
	if len(s) != 2 {
		t.Errorf("sample = %v", s)
	}
}

func TestObjectFraction(t *testing.T) {
	db := sampleDB(t)
	box := interval.NewBox()
	box.Set("T.u", interval.Closed(1, 2))
	frac := db.ObjectFraction([]string{"T"}, box, nil)
	if frac != 0.5 {
		t.Errorf("fraction = %v, want 0.5", frac)
	}
	// With categorical filter on S.
	box2 := interval.NewBox()
	frac = db.ObjectFraction([]string{"S"}, box2, map[string][]string{"S.w": {"a", "b"}})
	if frac < 0.66 || frac > 0.67 {
		t.Errorf("categorical fraction = %v", frac)
	}
}

func TestRateLimiter(t *testing.T) {
	rl := NewRateLimiter(3)
	for i := 0; i < 3; i++ {
		if !rl.Allow("alice", int64(i)) {
			t.Fatalf("query %d should be allowed", i)
		}
	}
	if rl.Allow("alice", 10) {
		t.Error("4th query within window should be denied")
	}
	if !rl.Allow("bob", 10) {
		t.Error("other users unaffected")
	}
	// After the window slides, alice can query again.
	if !rl.Allow("alice", 100) {
		t.Error("query after window should pass")
	}
	if err := rl.Check("alice", 100); err == nil {
		// 100 again: second query at t=100; only 1 in window... allowed.
		_ = err
	}
	var rle *RateLimitError
	rl2 := NewRateLimiter(1)
	rl2.Allow("x", 0)
	if err := rl2.Check("x", 1); !errors.As(err, &rle) {
		t.Errorf("err = %v", err)
	}
}

func TestUnknownTableError(t *testing.T) {
	db := sampleDB(t)
	if _, err := db.ExecuteSQL("SELECT * FROM NoSuch", ExecOptions{}); err == nil {
		t.Error("expected error for unknown table")
	}
}

func TestUnionExecution(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE u <= 2 UNION SELECT u FROM S WHERE u = 9")
	if len(rs.Rows) != 3 {
		t.Fatalf("union rows = %v", rs.Rows)
	}
	// Plain UNION deduplicates overlapping values (u = 1, 2 from both).
	rs = mustExec(t, db, "SELECT u FROM T WHERE u <= 2 UNION SELECT u FROM S WHERE u <= 2")
	if len(rs.Rows) != 2 {
		t.Fatalf("dedup union rows = %v", rs.Rows)
	}
	rs = mustExec(t, db, "SELECT u FROM T WHERE u <= 2 UNION ALL SELECT u FROM S WHERE u <= 2")
	if len(rs.Rows) != 4 {
		t.Fatalf("union all rows = %v", rs.Rows)
	}
}

func TestTopPercent(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT TOP 50 PERCENT u FROM T ORDER BY u")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestHavingConjunctionAndOrderByAggregate(t *testing.T) {
	db := New(nil)
	db.CreateTable("G", "k", "v")
	for _, r := range [][]Value{
		{S("a"), N(1)}, {S("a"), N(2)},
		{S("b"), N(10)}, {S("b"), N(20)},
		{S("c"), N(100)},
	} {
		db.Insert("G", r...)
	}
	rs := mustExec(t, db, "SELECT k, SUM(v) FROM G GROUP BY k HAVING SUM(v) > 2 AND COUNT(*) >= 2 ORDER BY SUM(v) DESC")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if rs.Rows[0][0].Str != "b" || rs.Rows[1][0].Str != "a" {
		t.Errorf("order = %v", rs.Rows)
	}
}

func TestAggregateOverExpression(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT SUM(v * 2) FROM T")
	if rs.Rows[0][0].Num != 200 {
		t.Errorf("sum = %v", rs.Rows[0][0])
	}
	rs = mustExec(t, db, "SELECT AVG(u + v) FROM T")
	if rs.Rows[0][0].Num != 27.5 {
		t.Errorf("avg = %v", rs.Rows[0][0])
	}
}

func TestGroupByExpression(t *testing.T) {
	db := sampleDB(t)
	// Group by parity of u: two groups.
	rs := mustExec(t, db, "SELECT u % 2, COUNT(*) FROM T GROUP BY u % 2")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestNestedDerivedTables(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT y.u FROM (SELECT x.u FROM (SELECT u FROM T WHERE u > 1) x WHERE x.u < 4) y")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestStringConcat(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT w || '!' FROM S WHERE u = 1")
	if rs.Rows[0][0].Str != "a!" {
		t.Errorf("concat = %v", rs.Rows[0][0])
	}
}

func TestCaseInWhere(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u FROM T WHERE CASE WHEN u < 3 THEN 1 ELSE 0 END = 1")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT v / (u - u) FROM T WHERE u = 1")
	if rs.Rows[0][0].Kind != Null {
		t.Errorf("division by zero = %v", rs.Rows[0][0])
	}
}

func TestBindingAmbiguityPrefersQualifier(t *testing.T) {
	db := sampleDB(t)
	// Both T and S have column u; qualified reference disambiguates.
	rs := mustExec(t, db, "SELECT S.u FROM T, S WHERE T.u = 1 AND S.u = 9")
	if len(rs.Rows) != 1 || rs.Rows[0][0].Num != 9 {
		t.Fatalf("rows = %v", rs.Rows)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// The equi-join fast path must agree with the general nested loop on
	// every join type (matches, padding, duplicates).
	db := New(nil)
	db.CreateTable("L", "k", "x")
	db.CreateTable("R2", "k", "y")
	for _, r := range [][]Value{{N(1), N(10)}, {N(2), N(20)}, {N(2), N(21)}, {N(3), N(30)}} {
		db.Insert("L", r...)
	}
	for _, r := range [][]Value{{N(2), N(200)}, {N(2), N(201)}, {N(4), N(400)}} {
		db.Insert("R2", r...)
	}
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT * FROM L JOIN R2 ON L.k = R2.k", 4},              // 2×2 matches
		{"SELECT * FROM L JOIN R2 ON R2.k = L.k", 4},              // flipped operands
		{"SELECT * FROM L LEFT JOIN R2 ON L.k = R2.k", 6},         // 4 + rows 1,3 padded
		{"SELECT * FROM L RIGHT JOIN R2 ON L.k = R2.k", 5},        // 4 + row k=4 padded
		{"SELECT * FROM L FULL OUTER JOIN R2 ON L.k = R2.k", 7},   // 4 + 2 + 1
		{"SELECT * FROM L JOIN R2 ON L.k = R2.k AND L.x > 15", 4}, // complex ON: nested loop... matches where k=2 and x>15
	}
	for _, c := range cases {
		rs := mustExec(t, db, c.sql)
		if len(rs.Rows) != c.want {
			t.Errorf("%q: rows = %d, want %d", c.sql, len(rs.Rows), c.want)
		}
	}
}

func BenchmarkEquiJoin(b *testing.B) {
	db := New(nil)
	db.CreateTable("A", "k")
	db.CreateTable("B", "k")
	for i := 0; i < 2000; i++ {
		db.Insert("A", N(float64(i)))
		db.Insert("B", N(float64(i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecuteSQL("SELECT COUNT(*) FROM A JOIN B ON A.k = B.k", ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScalarFunctionsBroad(t *testing.T) {
	db := sampleDB(t)
	cases := []struct {
		sql  string
		want Value
	}{
		{"SELECT SQRT(v) FROM T WHERE u = 1", N(3.1622776601683795)},
		{"SELECT FLOOR(v / u) FROM T WHERE u = 3", N(10)},
		{"SELECT CEILING(v / 7) FROM T WHERE u = 1", N(2)},
		{"SELECT LOWER(UPPER(w)) FROM S WHERE u = 1", S("a")},
		{"SELECT LEN(w || 'bc') FROM S WHERE u = 1", N(3)},
		{"SELECT LEFT(w || 'xyz', 2) FROM S WHERE u = 1", S("ax")},
		{"SELECT RIGHT(w || 'xyz', 2) FROM S WHERE u = 1", S("yz")},
		{"SELECT ABS(0 - v) FROM T WHERE u = 2", N(20)},
	}
	for _, c := range cases {
		rs := mustExec(t, db, c.sql)
		got := rs.Rows[0][0]
		if !got.Equal(c.want) {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
	// Unknown scalar function yields NULL.
	rs := mustExec(t, db, "SELECT fMagToFlux(v) FROM T WHERE u = 1")
	if rs.Rows[0][0].Kind != Null {
		t.Errorf("unknown fn = %v", rs.Rows[0][0])
	}
}

func TestSimpleCaseWithOperand(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT CASE u WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM T ORDER BY u")
	if rs.Rows[0][0].Str != "one" || rs.Rows[1][0].Str != "two" {
		t.Errorf("rows = %v", rs.Rows)
	}
	if rs.Rows[2][0].Kind != Null {
		t.Errorf("no-match case = %v", rs.Rows[2][0])
	}
}

func TestBooleanInScalarPosition(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT u > 2 FROM T ORDER BY u")
	if rs.Rows[0][0].Num != 0 || rs.Rows[3][0].Num != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
	// NOT in scalar position.
	rs = mustExec(t, db, "SELECT NOT (u > 2) FROM T WHERE u = 1")
	if rs.Rows[0][0].Num != 1 {
		t.Errorf("not = %v", rs.Rows[0][0])
	}
}

func TestTablesListing(t *testing.T) {
	db := sampleDB(t)
	names := db.Tables()
	if len(names) != 2 || names[0] != "S" || names[1] != "T" {
		t.Errorf("tables = %v", names)
	}
}

func TestErrorStrings(t *testing.T) {
	if (&RowLimitError{Limit: 500000}).Error() != "limit is top 500000" {
		t.Error("row limit message")
	}
	if (&DialectError{Construct: "LIMIT"}).Error() != "incorrect syntax near 'LIMIT'" {
		t.Error("dialect message")
	}
	if (&RateLimitError{PerMinute: 60}).Error() != "Maximum 60 queries allowed per minute" {
		t.Error("rate limit message")
	}
}

func TestNegationAndModulo(t *testing.T) {
	db := sampleDB(t)
	rs := mustExec(t, db, "SELECT -v, v % 3 FROM T WHERE u = 1")
	if rs.Rows[0][0].Num != -10 || rs.Rows[0][1].Num != 1 {
		t.Errorf("row = %v", rs.Rows[0])
	}
	// Modulo by zero -> NULL.
	rs = mustExec(t, db, "SELECT v % (u - u) FROM T WHERE u = 1")
	if rs.Rows[0][0].Kind != Null {
		t.Errorf("mod0 = %v", rs.Rows[0][0])
	}
}

func TestRestrict(t *testing.T) {
	db := sampleDB(t)
	box := interval.NewBox()
	box.Set("T.v", interval.Closed(15, 35))
	box.Set("Other.x", interval.Point(1)) // foreign relation: ignored
	sub := db.Restrict([]string{"T", "S", "Missing"}, box, map[string][]string{
		"S.w": {"A", "c"}, // case-insensitive match, mirroring query evaluation
	})
	tt := sub.Table("T")
	if tt == nil || len(tt.Rows) != 2 || tt.Rows[0][0].Num != 2 || tt.Rows[1][0].Num != 3 {
		t.Fatalf("T restricted wrong: %+v", tt)
	}
	st := sub.Table("S")
	if st == nil || len(st.Rows) != 2 || st.Rows[0][1].Str != "a" || st.Rows[1][1].Str != "c" {
		t.Fatalf("S restricted wrong: %+v", st)
	}
	if sub.Table("Missing") != nil {
		t.Fatal("absent relation must be skipped")
	}
	// Row order preserved and slices shared with the source.
	if &st.Rows[0][0] != &db.Table("S").Rows[0][0] {
		t.Fatal("rows must be shared, not copied")
	}
	// Restricted sub-database executes queries like any other DB.
	rs := mustExec(t, sub, "SELECT u FROM T")
	if len(rs.Rows) != 2 {
		t.Fatalf("exec over restricted db: %v", rs.Rows)
	}
}

// A qualified column lookup resolves an ASCII qualifier in any case without
// allocating, and matches exactly what lowercasing the qualifier matches.
func TestQualifiedLookupAllocs(t *testing.T) {
	tbl := New(nil).CreateTable("PhotoObjAll", "objid", "ra")
	b := &binding{names: bindingNames("dbo.PhotoObjAll", "p", tbl.Name), table: tbl, row: []Value{N(7), N(185.5)}}
	e := &env{bindings: []*binding{b}}
	for _, q := range []string{"P", "p", "PHOTOOBJALL", "photoObjAll", "DBO.PhotoObjAll"} {
		if v, ok := e.lookup(q, "ra"); !ok || v.Num != 185.5 {
			t.Fatalf("lookup(%q, ra) = %v, %v", q, v, ok)
		}
		if n := testing.AllocsPerRun(100, func() { e.lookup(q, "ra") }); n != 0 {
			t.Errorf("lookup(%q, ra): %v allocs, want 0", q, n)
		}
	}
	// A mixed-case ASCII column name resolves without allocating too.
	for _, qc := range [][2]string{{"p", "objID"}, {"P", "RA"}} {
		if _, ok := e.lookup(qc[0], qc[1]); !ok {
			t.Fatalf("lookup(%q, %q) not found", qc[0], qc[1])
		}
		if n := testing.AllocsPerRun(100, func() { e.lookup(qc[0], qc[1]) }); n != 0 {
			t.Errorf("lookup(%q, %q): %v allocs, want 0", qc[0], qc[1], n)
		}
	}
	// Every qualifier, ASCII or not, matches as its lowercased form would;
	// "K" (Kelvin sign) lowercases to an ASCII "k".
	k := &binding{names: bindingNames("K", "ärm", "k")}
	for _, q := range []string{"k", "K", "K", "ÄRM", "ärm", "arm", "Ä", "kk", "", "p"} {
		want := slices.Contains(k.names, strings.ToLower(q))
		if got := k.matches(q); got != want {
			t.Errorf("matches(%q) = %v, want %v", q, got, want)
		}
	}
}
