package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/predicate"
)

func itemRange(rel, col string, lo, hi float64, weight int, users ...string) *Item {
	cnf := predicate.CNF{
		{predicate.CC(col, predicate.Ge, predicate.Number(lo))},
		{predicate.CC(col, predicate.Le, predicate.Number(hi))},
	}
	us := make(map[string]struct{})
	for _, u := range users {
		us[u] = struct{}{}
	}
	return &Item{
		Area:   &extract.AccessArea{Relations: []string{rel}, CNF: cnf, Exact: true},
		Weight: weight,
		Users:  us,
	}
}

func itemEq(rel, col string, v float64, weight int) *Item {
	cnf := predicate.CNF{{predicate.CC(col, predicate.Eq, predicate.Number(v))}}
	return &Item{
		Area:   &extract.AccessArea{Relations: []string{rel}, CNF: cnf, Exact: true},
		Weight: weight,
		Users:  map[string]struct{}{"u": {}},
	}
}

func TestSummarizeBasics(t *testing.T) {
	items := []*Item{
		itemRange("T", "T.u", 0, 10, 3, "alice", "bob"),
		itemRange("T", "T.u", 2, 12, 2, "bob", "carol"),
	}
	s := Summarize(1, items, Options{})
	if s.Cardinality != 5 {
		t.Errorf("cardinality = %d, want 5", s.Cardinality)
	}
	if s.UserCount != 3 {
		t.Errorf("users = %d, want 3", s.UserCount)
	}
	if len(s.Relations) != 1 || s.Relations[0] != "T" {
		t.Errorf("relations = %v", s.Relations)
	}
	iv := s.Box.Get("T.u")
	if iv.Lo != 0 || iv.Hi != 12 {
		t.Errorf("box = %v, want [0, 12]", iv)
	}
}

func TestSigmaTrimmingDropsOutlierBound(t *testing.T) {
	// Many tight ranges plus one absurd outlier upper bound; the 3σ rule
	// must drop it.
	var items []*Item
	for i := 0; i < 30; i++ {
		items = append(items, itemRange("T", "T.u", float64(i), float64(100+i), 1, "u"))
	}
	items = append(items, itemRange("T", "T.u", 0, 1e12, 1, "weird"))
	s := Summarize(0, items, Options{})
	hi := s.Box.Get("T.u").Hi
	if hi > 1000 {
		t.Errorf("hi = %v, outlier not trimmed", hi)
	}
	// With trimming disabled, the outlier survives.
	s = Summarize(0, items, Options{SigmaRule: -1})
	if s.Box.Get("T.u").Hi != 1e12 {
		t.Errorf("untrimmed hi = %v", s.Box.Get("T.u").Hi)
	}
}

func TestEqualityClusterSpansConstants(t *testing.T) {
	// The Cluster-1 shape: objid = c for many c.
	items := []*Item{
		itemEq("Photoz", "Photoz.objid", 100, 5),
		itemEq("Photoz", "Photoz.objid", 200, 5),
		itemEq("Photoz", "Photoz.objid", 300, 5),
	}
	s := Summarize(0, items, Options{})
	iv := s.Box.Get("Photoz.objid")
	if iv.Lo != 100 || iv.Hi != 300 {
		t.Errorf("box = %v, want [100, 300]", iv)
	}
	if s.Cardinality != 15 {
		t.Errorf("cardinality = %d", s.Cardinality)
	}
}

func TestOneSidedBoundsStayOneSided(t *testing.T) {
	// Cluster-5 shape: ra <= c, dec <= d — lower bounds unbounded.
	mk := func(c, d float64) *Item {
		cnf := predicate.CNF{
			{predicate.CC("PhotoObjAll.ra", predicate.Le, predicate.Number(c))},
			{predicate.CC("PhotoObjAll.dec", predicate.Le, predicate.Number(d))},
		}
		return &Item{Area: &extract.AccessArea{Relations: []string{"PhotoObjAll"}, CNF: cnf}, Weight: 1,
			Users: map[string]struct{}{"u": {}}}
	}
	s := Summarize(0, []*Item{mk(210, 10), mk(200, 9), mk(205, 11)}, Options{})
	ra := s.Box.Get("PhotoObjAll.ra")
	if !math.IsInf(ra.Lo, -1) || ra.Hi != 210 {
		t.Errorf("ra = %v, want (-inf, 210]", ra)
	}
	expr := s.Expr()
	if !strings.Contains(expr, "(PhotoObjAll.ra <= 210)") {
		t.Errorf("expr = %q", expr)
	}
}

func TestColumnSupportThreshold(t *testing.T) {
	// Only 1 of 4 members constrains T.v: it must not appear in the box.
	items := []*Item{
		itemRange("T", "T.u", 0, 10, 1, "a"),
		itemRange("T", "T.u", 0, 11, 1, "a"),
		itemRange("T", "T.u", 0, 12, 1, "a"),
		itemRange("T", "T.v", 5, 6, 1, "a"),
	}
	s := Summarize(0, items, Options{})
	if s.Box.Has("T.v") {
		t.Errorf("T.v should be dropped (support 25%%): %v", s.Box)
	}
	if !s.Box.Has("T.u") {
		t.Error("T.u missing")
	}
}

func TestCategoricalAndJoinPreds(t *testing.T) {
	mkItem := func() *Item {
		cnf := predicate.CNF{
			{predicate.CC("SpecObjAll.class", predicate.Eq, predicate.Str("star"))},
			{predicate.Cols("galSpecExtra.specobjid", predicate.Eq, "galSpecIndx.specObjID")},
			{predicate.CC("SpecObjAll.mjd", predicate.Ge, predicate.Number(51578))},
		}
		return &Item{
			Area:   &extract.AccessArea{Relations: []string{"SpecObjAll"}, CNF: cnf},
			Weight: 1, Users: map[string]struct{}{"u": {}},
		}
	}
	s := Summarize(0, []*Item{mkItem(), mkItem()}, Options{})
	if vals := s.Categorical["SpecObjAll.class"]; len(vals) != 1 || vals[0] != "star" {
		t.Errorf("categorical = %v", s.Categorical)
	}
	if len(s.JoinPreds) != 1 {
		t.Errorf("join preds = %v", s.JoinPreds)
	}
	expr := s.Expr()
	if !strings.Contains(expr, "(SpecObjAll.class = 'star')") {
		t.Errorf("expr = %q", expr)
	}
	if !strings.Contains(expr, "(SpecObjAll.mjd >= 51578)") {
		t.Errorf("expr = %q", expr)
	}
}

func TestMultiValueCategorical(t *testing.T) {
	mk := func(v string) *Item {
		cnf := predicate.CNF{{predicate.CC("DBObjects.type", predicate.Eq, predicate.Str(v))}}
		return &Item{Area: &extract.AccessArea{Relations: []string{"DBObjects"}, CNF: cnf}, Weight: 1,
			Users: map[string]struct{}{"u": {}}}
	}
	s := Summarize(0, []*Item{mk("V"), mk("U")}, Options{})
	expr := s.Expr()
	if !strings.Contains(expr, "(DBObjects.type = 'U') OR (DBObjects.type = 'V')") {
		t.Errorf("expr = %q", expr)
	}
}

// fakeSource implements DataSource for coverage tests.
type fakeSource struct {
	content map[string]interval.Interval
	values  map[string][]string
	frac    float64
}

func (f *fakeSource) ContentInterval(col string) (interval.Interval, bool) {
	iv, ok := f.content[col]
	return iv, ok
}
func (f *fakeSource) ContentValues(col string) ([]string, bool) {
	v, ok := f.values[col]
	return v, ok
}
func (f *fakeSource) ObjectFraction([]string, *interval.Box, map[string][]string) float64 {
	return f.frac
}

func TestComputeCoverage(t *testing.T) {
	src := &fakeSource{
		content: map[string]interval.Interval{"T.u": interval.Closed(0, 100)},
		values:  map[string][]string{"T.c": {"a", "b", "c", "d"}},
		frac:    0.25,
	}
	s := Summarize(0, []*Item{itemRange("T", "T.u", 0, 50, 1, "x")}, Options{})
	s.ComputeCoverage(src)
	if s.AreaCoverage != 0.5 {
		t.Errorf("area coverage = %v, want 0.5", s.AreaCoverage)
	}
	if s.ObjectCoverage != 0.25 {
		t.Errorf("object coverage = %v", s.ObjectCoverage)
	}
}

func TestCoverageEmptyAreaCluster(t *testing.T) {
	// Cluster entirely outside content (a Table-1 empty-area cluster,
	// e.g. Photoz.z in [-0.98, -0.1] with content [0, 1]).
	src := &fakeSource{
		content: map[string]interval.Interval{"Photoz.z": interval.Closed(0, 1)},
		frac:    0,
	}
	s := Summarize(0, []*Item{itemRange("Photoz", "Photoz.z", -0.98, -0.1, 10, "x")}, Options{})
	s.ComputeCoverage(src)
	if s.AreaCoverage != 0 || s.ObjectCoverage != 0 {
		t.Errorf("coverage = %v / %v, want 0 / 0", s.AreaCoverage, s.ObjectCoverage)
	}
}

func TestCoverageCategoricalFactor(t *testing.T) {
	src := &fakeSource{
		content: map[string]interval.Interval{"S.mjd": interval.Closed(0, 100)},
		values:  map[string][]string{"S.class": {"STAR", "GALAXY", "QSO"}},
		frac:    0.1,
	}
	cnf := predicate.CNF{
		{predicate.CC("S.class", predicate.Eq, predicate.Str("STAR"))},
		{predicate.CC("S.mjd", predicate.Ge, predicate.Number(0))},
		{predicate.CC("S.mjd", predicate.Le, predicate.Number(30))},
	}
	it := &Item{Area: &extract.AccessArea{Relations: []string{"S"}, CNF: cnf}, Weight: 1,
		Users: map[string]struct{}{"u": {}}}
	s := Summarize(0, []*Item{it}, Options{})
	s.ComputeCoverage(src)
	want := 0.3 * (1.0 / 3.0)
	if math.Abs(s.AreaCoverage-want) > 1e-12 {
		t.Errorf("area coverage = %v, want %v", s.AreaCoverage, want)
	}
}

func TestCoverageCategoricalCaseFoldDenominator(t *testing.T) {
	// SkyServer's collation is case-insensitive: 'star' and 'STAR' are one
	// content value, so a cluster touching it covers 1/2 of the distinct
	// values, not 1/4 of the raw list.
	src := &fakeSource{
		values: map[string][]string{"S.class": {"star", "STAR", "Galaxy", "GALAXY"}},
		frac:   0.1,
	}
	cnf := predicate.CNF{
		{predicate.CC("S.class", predicate.Eq, predicate.Str("STAR"))},
	}
	it := &Item{Area: &extract.AccessArea{Relations: []string{"S"}, CNF: cnf}, Weight: 1,
		Users: map[string]struct{}{"u": {}}}
	s := Summarize(0, []*Item{it}, Options{})
	s.ComputeCoverage(src)
	if math.Abs(s.AreaCoverage-0.5) > 1e-12 {
		t.Errorf("area coverage = %v, want 0.5 (case-folded distinct divisor)", s.AreaCoverage)
	}
}

func TestExprPointConstraint(t *testing.T) {
	s := Summarize(0, []*Item{itemEq("T", "T.u", 5, 1)}, Options{})
	if !strings.Contains(s.Expr(), "(T.u = 5)") {
		t.Errorf("expr = %q", s.Expr())
	}
}

func TestExprUnconstrained(t *testing.T) {
	it := &Item{Area: &extract.AccessArea{Relations: []string{"T"}, CNF: predicate.CNF{}}, Weight: 1,
		Users: map[string]struct{}{"u": {}}}
	s := Summarize(0, []*Item{it}, Options{})
	if s.Expr() != "⊤" {
		t.Errorf("expr = %q", s.Expr())
	}
}

func TestDensityContrast(t *testing.T) {
	// Dense cluster of equality queries in [0, 10], sparse surroundings.
	var all []*Item
	for i := 0; i < 50; i++ {
		all = append(all, itemEq("T", "T.u", float64(i%11), 1))
	}
	// A few queries in the shell around the box.
	all = append(all, itemEq("T", "T.u", -3, 1), itemEq("T", "T.u", 14, 1))
	s := Summarize(0, all[:50], Options{})
	contrast := DensityContrast(s, all, 0.5)
	if contrast < 5 {
		t.Errorf("contrast = %v, want strongly > 1 (dense plateau)", contrast)
	}
	// Uniform field: contrast near 1.
	var uniform []*Item
	for i := 0; i < 60; i++ {
		uniform = append(uniform, itemEq("T", "T.u", float64(i), 1))
	}
	boxItems := uniform[20:41] // [20, 40]
	s2 := Summarize(0, boxItems, Options{})
	c2 := DensityContrast(s2, uniform, 0.5)
	if c2 < 0.5 || c2 > 2 {
		t.Errorf("uniform contrast = %v, want ~1", c2)
	}
	// Isolated plateau: empty shell => +Inf.
	s3 := Summarize(0, all[:50], Options{})
	c3 := DensityContrast(s3, all[:50], 0.1)
	if !math.IsInf(c3, 1) {
		t.Errorf("isolated contrast = %v, want +Inf", c3)
	}
}

func TestDensityContrastNoBoundedDims(t *testing.T) {
	it := &Item{Area: &extract.AccessArea{Relations: []string{"T"},
		CNF: predicate.CNF{{predicate.CC("T.u", predicate.Ge, predicate.Number(1))}}}, Weight: 1,
		Users: map[string]struct{}{"u": {}}}
	s := Summarize(0, []*Item{it}, Options{})
	if c := DensityContrast(s, []*Item{it}, 0.5); c != 1 {
		t.Errorf("contrast = %v, want 1 for unbounded box", c)
	}
}

func TestRepresentatives(t *testing.T) {
	items := []*Item{
		itemEq("T", "T.u", 1, 1),
		itemEq("T", "T.u", 2, 50), // heaviest
		itemEq("T", "T.u", 3, 10),
		itemEq("T", "T.u", 4, 5),
	}
	s := Summarize(0, items, Options{})
	if len(s.Representatives) != 3 {
		t.Fatalf("representatives = %v", s.Representatives)
	}
	if !strings.Contains(s.Representatives[0], "T.u = 2") {
		t.Errorf("first representative = %q, want the heaviest", s.Representatives[0])
	}
}

// randomArea builds an access area over a few columns of one or two
// relations: closed, one-sided, disjunctive and contradictory ranges,
// not-equal sets, string equalities and a join predicate.
func randomArea(r *rand.Rand) *extract.AccessArea {
	cols := []string{"T.a", "T.b", "T.c", "U.d"}
	ops := []predicate.Op{predicate.Lt, predicate.Le, predicate.Eq, predicate.Ge, predicate.Gt, predicate.Ne}
	var cnf predicate.CNF
	for _, col := range cols {
		switch r.Intn(6) {
		case 0: // unconstrained
		case 1:
			lo := float64(r.Intn(100))
			cnf = append(cnf,
				predicate.Clause{predicate.CC(col, predicate.Ge, predicate.Number(lo))},
				predicate.Clause{predicate.CC(col, predicate.Le, predicate.Number(lo+float64(r.Intn(50))))})
		case 2:
			cnf = append(cnf, predicate.Clause{predicate.CC(col, ops[r.Intn(len(ops))], predicate.Number(float64(r.Intn(100))))})
		case 3: // disjunction on one column: the hull spans both pieces
			cnf = append(cnf, predicate.Clause{
				predicate.CC(col, predicate.Lt, predicate.Number(float64(r.Intn(40)))),
				predicate.CC(col, predicate.Gt, predicate.Number(float64(60+r.Intn(40)))),
			})
		case 4: // contradictory range: an empty hull, dropped
			cnf = append(cnf,
				predicate.Clause{predicate.CC(col, predicate.Gt, predicate.Number(50))},
				predicate.Clause{predicate.CC(col, predicate.Lt, predicate.Number(10))})
		case 5:
			cnf = append(cnf, predicate.Clause{predicate.CC(col, predicate.Eq, predicate.Str([]string{"x", "y", "z"}[r.Intn(3)]))})
		}
	}
	if r.Intn(4) == 0 {
		cnf = append(cnf, predicate.Clause{predicate.Cols("T.a", predicate.Eq, "U.d")})
	}
	rels := []string{"T"}
	if r.Intn(3) == 0 {
		rels = []string{"T", "U"}
	}
	return &extract.AccessArea{Relations: rels, CNF: cnf, Exact: true}
}

// boundsHulls is the member projection numericBox sampled before hulls were
// cached: every column's bound-set hull from Area.Bounds, empty ones
// skipped, in column order.
func boundsHulls(a *extract.AccessArea) []ColumnHull {
	out := []ColumnHull{}
	for col, set := range a.Bounds() {
		if h := set.Hull(); !h.IsEmpty() {
			out = append(out, ColumnHull{col, h.Lo, h.Hi})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Col < out[j].Col })
	return out
}

// Summaries built from cached hulls must equal, field for field, the ones
// built by deriving every member's bounds from its CNF: same samples in the
// same order, so the same float arithmetic.
func TestSummarizeWithHullsMatchesDerived(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		derived := make([]*Item, n)
		cached := make([]*Item, n)
		for i := range derived {
			area := randomArea(r)
			users := map[string]struct{}{fmt.Sprint("u", r.Intn(4)): {}}
			derived[i] = &Item{Area: area, Weight: 1 + r.Intn(5), Users: users}
			cached[i] = &Item{Area: area, Weight: derived[i].Weight, Users: users, Hulls: AreaHulls(area)}
			if got, want := cached[i].Hulls, boundsHulls(area); got == nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: AreaHulls = %v, want %v", trial, got, want)
			}
		}
		opts := Options{SigmaRule: []float64{0, -1, 1}[r.Intn(3)]}
		if got, want := Summarize(trial, cached, opts), Summarize(trial, derived, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: summary from cached hulls\n%+v\nwant\n%+v", trial, got, want)
		}
	}
}
