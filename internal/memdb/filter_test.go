package memdb_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interval"
	"repro/internal/memdb"
	"repro/internal/skyserver"
)

// oracleMatch is the per-row region test ObjectFraction and RestrictIndexed
// ran before filters were compiled per table: it resolves every box
// dimension and categorical column against the table on every row. The
// compiled filter must admit exactly the rows it admits.
func oracleMatch(t *memdb.Table, row []memdb.Value, box *interval.Box, categorical map[string][]string) bool {
	for _, col := range box.Dims() {
		rel, cname, ok := oracleSplit(col)
		if !ok || !strings.EqualFold(rel, t.Name) {
			continue
		}
		ci, ok := t.ColumnIndex(cname)
		if !ok {
			continue
		}
		v := row[ci]
		if v.Kind != memdb.Num || !box.Get(col).Contains(v.Num) {
			return false
		}
	}
	for col, vals := range categorical {
		rel, cname, ok := oracleSplit(col)
		if !ok || !strings.EqualFold(rel, t.Name) {
			continue
		}
		ci, ok := t.ColumnIndex(cname)
		if !ok {
			continue
		}
		v := row[ci]
		if v.Kind != memdb.Str {
			return false
		}
		found := false
		for _, want := range vals {
			if strings.EqualFold(v.Str, want) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func oracleSplit(name string) (rel, col string, ok bool) {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return "", name, false
	}
	return name[:i], name[i+1:], true
}

func oracleFraction(db *memdb.DB, relations []string, box *interval.Box, categorical map[string][]string) float64 {
	frac := 1.0
	for _, rel := range relations {
		t := db.Table(rel)
		if t == nil || len(t.Rows) == 0 {
			continue
		}
		matched := 0
		for _, row := range t.Rows {
			if oracleMatch(t, row, box, categorical) {
				matched++
			}
		}
		frac *= float64(matched) / float64(len(t.Rows))
	}
	return frac
}

// oraclePositions is RestrictIndexed's position index under oracleMatch.
func oraclePositions(db *memdb.DB, relations []string, box *interval.Box, categorical map[string][]string) map[string][]int {
	out := map[string][]int{}
	for _, rel := range relations {
		t := db.Table(rel)
		if t == nil {
			continue
		}
		key := strings.ToLower(t.Name)
		if _, done := out[key]; done {
			continue
		}
		positions := []int{}
		for ri, row := range t.Rows {
			if oracleMatch(t, row, box, categorical) {
				positions = append(positions, ri)
			}
		}
		out[key] = positions
	}
	return out
}

// randomCase flips the case of each letter with probability one half.
func randomCase(r *rand.Rand, s string) string {
	b := []byte(s)
	for i, c := range b {
		if r.Intn(2) == 0 {
			continue
		}
		switch {
		case c >= 'a' && c <= 'z':
			b[i] = c - 'a' + 'A'
		case c >= 'A' && c <= 'Z':
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// filterDB is the synthetic SkyServer database plus rows holding strings
// in numeric columns, which a numeric constraint must reject.
func filterDB(t *testing.T, rows int) *memdb.DB {
	t.Helper()
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: rows, Seed: 7})
	for i := 0; i < 5; i++ {
		if err := db.Insert("PhotoObjAll", memdb.S("n/a"), memdb.S("n/a"), memdb.N(10), memdb.N(15),
			memdb.N(15), memdb.S("?"), memdb.N(15), memdb.N(15), memdb.S("1")); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("SpecObjAll", memdb.N(1), memdb.S("x"), memdb.N(52000), memdb.N(150),
			memdb.N(10), memdb.N(0.5), memdb.N(3)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// Dimension pools: columns of the tables under test, columns of other
// relations, unknown columns, unqualified and schema-qualified names, and
// string columns constrained as numbers.
var (
	numericDims = []string{
		"PhotoObjAll.ra", "PhotoObjAll.dec", "PhotoObjAll.u", "PhotoObjAll.objid", "PhotoObjAll.mode",
		"SpecObjAll.ra", "SpecObjAll.z", "SpecObjAll.plate", "Photoz.z", "Photoz.zerr",
		"galSpecLine.h_alpha_flux", "galSpecIndx.specObjID",
	}
	oddDims = []string{
		"SpecPhotoAll.ra", "PhotoObjAll.nosuch", "ra", "dbo.PhotoObjAll.ra",
		"SpecObjAll.class", "galSpecInfo.targettype", "Missing.x",
	}
	categoricalCols = map[string][]string{
		"SpecObjAll.class":       {"star", "GALAXY", "Qso", "nebula"},
		"galSpecInfo.targettype": {"galaxy", "QSO", "any"},
		"PhotoObjAll.mode":       {"1", "2", ""}, // "" must not match a number
		"SpecPhotoAll.ra":        {"1"},
		"SpecObjAll.nosuch":      {"x"},
	}
	filterRelations = []string{
		"PhotoObjAll", "SpecObjAll", "Photoz", "galSpecLine", "galSpecInfo", "galSpecIndx", "Missing",
	}
)

func randomInterval(r *rand.Rand, db *memdb.DB, col string) interval.Interval {
	content, ok := db.ContentInterval(col)
	if !ok {
		content = interval.Closed(-1000, 1000)
	}
	a := content.Lo + r.Float64()*(content.Hi-content.Lo)
	b := content.Lo + r.Float64()*(content.Hi-content.Lo)
	if a > b {
		a, b = b, a
	}
	switch r.Intn(8) {
	case 0:
		return interval.Below(b, r.Intn(2) == 0)
	case 1:
		return interval.Above(a, r.Intn(2) == 0)
	case 2:
		return interval.Full()
	case 3:
		return interval.Empty()
	case 4:
		return interval.Point(a)
	}
	return interval.Interval{Lo: a, Hi: b, LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
}

func randomRegion(r *rand.Rand, db *memdb.DB) ([]string, *interval.Box, map[string][]string) {
	box := interval.NewBox()
	for _, col := range numericDims {
		if r.Intn(4) == 0 {
			box.Set(randomCase(r, col), randomInterval(r, db, col))
		}
	}
	for _, col := range oddDims {
		if r.Intn(6) == 0 {
			box.Set(randomCase(r, col), randomInterval(r, db, col))
		}
	}
	var categorical map[string][]string
	if r.Intn(3) > 0 {
		categorical = map[string][]string{}
		for col, pool := range categoricalCols {
			if r.Intn(3) > 0 {
				continue
			}
			var vals []string
			for _, v := range pool {
				if r.Intn(2) == 0 {
					vals = append(vals, randomCase(r, v))
				}
			}
			categorical[randomCase(r, col)] = vals
		}
	}
	var relations []string
	for _, rel := range filterRelations {
		if r.Intn(3) == 0 {
			relations = append(relations, randomCase(r, rel))
		}
	}
	if len(relations) > 0 && r.Intn(5) == 0 {
		relations = append(relations, randomCase(r, relations[0])) // duplicate relation
	}
	return relations, box, categorical
}

// TestCompiledFilterMatchesOracle checks ObjectFraction and RestrictIndexed
// against the per-row oracle over seeded random regions: same fraction, same
// admitted positions, and the restricted rows are the source rows.
func TestCompiledFilterMatchesOracle(t *testing.T) {
	db := filterDB(t, 400)
	r := rand.New(rand.NewSource(21))
	admitted := 0
	for trial := 0; trial < 600; trial++ {
		relations, box, categorical := randomRegion(r, db)
		if got, want := db.ObjectFraction(relations, box, categorical), oracleFraction(db, relations, box, categorical); got != want {
			t.Fatalf("trial %d: ObjectFraction = %v, oracle %v (relations %v, box %s, categorical %v)",
				trial, got, want, relations, box, categorical)
		}
		view, idx := db.RestrictIndexed(relations, box, categorical)
		want := oraclePositions(db, relations, box, categorical)
		if !reflect.DeepEqual(idx, want) {
			t.Fatalf("trial %d: positions %v, oracle %v (relations %v, box %s, categorical %v)",
				trial, idx, want, relations, box, categorical)
		}
		for key, positions := range want {
			src, got := db.Table(key), view.Table(key)
			if got == nil || len(got.Rows) != len(positions) {
				t.Fatalf("trial %d: table %s restricted to %v, want %d rows", trial, key, got, len(positions))
			}
			for i, p := range positions {
				if &got.Rows[i][0] != &src.Rows[p][0] {
					t.Fatalf("trial %d: %s row %d is not source row %d", trial, key, i, p)
				}
			}
			admitted += len(positions)
		}
		if len(view.Tables()) != len(want) {
			t.Fatalf("trial %d: view tables %v, want %d", trial, view.Tables(), len(want))
		}
	}
	if admitted == 0 {
		t.Fatal("no trial admitted a row: the regions do not exercise matching")
	}
}

// TestObjectFractionAllocsIndependentOfRows guards the compiled filter's
// row loop: ObjectFraction allocates per table and constraint, never per
// row.
func TestObjectFractionAllocsIndependentOfRows(t *testing.T) {
	box := interval.NewBox()
	box.Set("photoobjall.RA", interval.Closed(150, 250))
	box.Set("PhotoObjAll.dec", interval.Above(-5, false))
	box.Set("SpecObjAll.z", interval.Below(1, true))
	categorical := map[string][]string{"specobjall.CLASS": {"galaxy", "Star"}}
	relations := []string{"PhotoObjAll", "specObjAll"}
	allocs := func(rows int) float64 {
		db := filterDB(t, rows)
		return testing.AllocsPerRun(20, func() { db.ObjectFraction(relations, box, categorical) })
	}
	small, large := allocs(200), allocs(3200)
	if small != large {
		t.Errorf("ObjectFraction allocs: %v at 200 rows, %v at 3200 rows", small, large)
	}
}
