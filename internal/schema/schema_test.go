package schema

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/interval"
)

func testSchema() *Schema {
	s := New()
	s.Add(NewRelation("SpecObjAll",
		Column{Name: "specobjid", Type: Numeric},
		Column{Name: "plate", Type: Numeric, Domain: interval.Closed(0, 20000)},
		Column{Name: "mjd", Type: Numeric},
		Column{Name: "class", Type: Categorical, Values: []string{"STAR", "GALAXY", "QSO"}},
	))
	s.Add(NewRelation("PhotoObjAll",
		Column{Name: "objid", Type: Numeric},
		Column{Name: "ra", Type: Numeric, Domain: interval.Closed(0, 360)},
		Column{Name: "dec", Type: Numeric, Domain: interval.Closed(-90, 90)},
	))
	return s
}

func TestRelationLookupCaseInsensitive(t *testing.T) {
	s := testSchema()
	if s.Relation("specobjall") == nil {
		t.Fatal("case-insensitive relation lookup failed")
	}
	r := s.Relation("SPECOBJALL")
	if r.Column("PLATE") == nil {
		t.Fatal("case-insensitive column lookup failed")
	}
	if got := r.QualifiedColumn("PLATE"); got != "SpecObjAll.plate" {
		t.Errorf("qualified = %q, want SpecObjAll.plate", got)
	}
	if s.CanonicalTable("photoobjall") != "PhotoObjAll" {
		t.Error("canonical table name not preserved")
	}
	if s.CanonicalTable("NoSuchTable") != "NoSuchTable" {
		t.Error("unknown table should pass through")
	}
}

func TestResolveColumn(t *testing.T) {
	s := testSchema()
	got := s.ResolveColumn("ra", []string{"SpecObjAll", "PhotoObjAll"})
	if got != "PhotoObjAll.ra" {
		t.Errorf("resolve ra = %q, want PhotoObjAll.ra", got)
	}
	got = s.ResolveColumn("plate", []string{"PhotoObjAll", "SpecObjAll"})
	if got != "SpecObjAll.plate" {
		t.Errorf("resolve plate = %q", got)
	}
	// Unknown column falls back to first candidate.
	got = s.ResolveColumn("mystery", []string{"photoobjall"})
	if got != "PhotoObjAll.mystery" {
		t.Errorf("fallback = %q", got)
	}
}

func TestSplitQualified(t *testing.T) {
	rel, col, ok := SplitQualified("SpecObjAll.plate")
	if !ok || rel != "SpecObjAll" || col != "plate" {
		t.Errorf("split = %q %q %v", rel, col, ok)
	}
	if _, _, ok := SplitQualified("bare"); ok {
		t.Error("bare name should not split")
	}
}

func TestEffectiveDomain(t *testing.T) {
	s := testSchema()
	c := s.Relation("PhotoObjAll").Column("dec")
	if !c.EffectiveDomain().Equal(interval.Closed(-90, 90)) {
		t.Errorf("domain = %v", c.EffectiveDomain())
	}
	c2 := s.Relation("SpecObjAll").Column("mjd")
	if !c2.EffectiveDomain().IsFull() {
		t.Error("unspecified numeric domain should default to full line")
	}
}

func TestStatsSeedSampleDoubling(t *testing.T) {
	st := NewStats()
	st.SeedNumericSample("T.u", []float64{10, 20, 30})
	// Range [10,30] doubled: [10-10, 30+10] = [0, 40].
	acc, ok := st.NumericAccess("T.u")
	if !ok || !acc.Equal(interval.Closed(0, 40)) {
		t.Errorf("access = %v ok=%v, want [0,40]", acc, ok)
	}
	cnt, _ := st.NumericContent("T.u")
	if !cnt.Equal(interval.Closed(0, 40)) {
		t.Errorf("content = %v, want [0,40]", cnt)
	}
}

func TestStatsObserveGrowsAccessNotContent(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.u", interval.Closed(0, 10))
	st.ObserveNumeric("T.u", 25)
	st.ObserveNumeric("T.u", -5)
	acc, _ := st.NumericAccess("T.u")
	if !acc.Equal(interval.Closed(-5, 25)) {
		t.Errorf("access = %v, want [-5,25]", acc)
	}
	cnt, _ := st.NumericContent("T.u")
	if !cnt.Equal(interval.Closed(0, 10)) {
		t.Errorf("content must not grow: %v", cnt)
	}
	// Observation inside access leaves it unchanged.
	st.ObserveNumeric("T.u", 3)
	acc, _ = st.NumericAccess("T.u")
	if !acc.Equal(interval.Closed(-5, 25)) {
		t.Errorf("access changed unexpectedly: %v", acc)
	}
}

// An observation says nothing about the data: an unseeded column's access
// grows from the constant but its content stays empty, also across a
// snapshot round trip.
func TestStatsObserveUnseededColumn(t *testing.T) {
	st := NewStats()
	st.ObserveNumeric("T.new", 7)
	acc, ok := st.NumericAccess("T.new")
	if !ok || !acc.Equal(interval.Point(7)) {
		t.Errorf("access = %v ok=%v", acc, ok)
	}
	if cnt, ok := st.NumericContent("T.new"); !ok || !cnt.IsEmpty() {
		t.Errorf("content = %v ok=%v, want empty", cnt, ok)
	}
	if _, ok := st.NumericAccess("T.other"); ok {
		t.Error("unknown column should report !ok")
	}

	raw, err := json.Marshal(st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	restored := NewStats()
	restored.RestoreSnapshot(&snap)
	if cnt, ok := restored.NumericContent("T.new"); !ok || !cnt.IsEmpty() {
		t.Errorf("restored content = %v ok=%v, want empty", cnt, ok)
	}
	if acc, _ := restored.NumericAccess("T.new"); !acc.Equal(interval.Point(7)) {
		t.Errorf("restored access = %v, want [7,7]", acc)
	}
	if !reflect.DeepEqual(restored.Snapshot(), st.Snapshot()) {
		t.Errorf("snapshot does not round-trip:\n%+v\n%+v", restored.Snapshot(), st.Snapshot())
	}
}

func TestStatsCategorical(t *testing.T) {
	st := NewStats()
	st.SeedCategorical("S.class", []string{"STAR", "GALAXY"})
	st.ObserveCategorical("S.class", "QSO")
	acc, ok := st.CategoricalAccess("S.class")
	if !ok || len(acc) != 3 {
		t.Errorf("access = %v", acc)
	}
	cnt, _ := st.CategoricalContent("S.class")
	if len(cnt) != 2 {
		t.Errorf("content = %v, want 2 values", cnt)
	}
}

func TestStatsConcurrency(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.u", interval.Closed(0, 100))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				st.ObserveNumeric("T.u", float64(g*1000+i))
				st.NumericAccess("T.u")
				st.ObserveCategorical("T.c", "v")
			}
		}(g)
	}
	wg.Wait()
	acc, _ := st.NumericAccess("T.u")
	if !acc.Contains(7499) {
		t.Errorf("access after concurrent growth = %v", acc)
	}
}

func TestContentBox(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.u", interval.Closed(0, 10))
	st.SeedNumericContent("T.v", interval.Closed(-1, 1))
	box := ContentBox(st)
	if !box.Get("T.u").Equal(interval.Closed(0, 10)) || !box.Get("T.v").Equal(interval.Closed(-1, 1)) {
		t.Errorf("content box = %v", box)
	}
}

func TestRelationsOrderAndStrings(t *testing.T) {
	s := testSchema()
	rels := s.Relations()
	if len(rels) != 2 || rels[0].Name != "SpecObjAll" || rels[1].Name != "PhotoObjAll" {
		t.Errorf("relations = %v", rels)
	}
	// Replacing keeps insertion order stable.
	s.Add(NewRelation("SpecObjAll", Column{Name: "only", Type: Numeric}))
	rels = s.Relations()
	if len(rels) != 2 || rels[0].Column("only") == nil {
		t.Errorf("after replace: %v", rels)
	}
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Error("ColumnType strings")
	}
}

func TestStatsIntrospection(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.b", interval.Closed(0, 1))
	st.SeedNumericContent("T.a", interval.Closed(0, 1))
	st.SeedCategorical("T.c", []string{"x"})
	cols := st.NumericColumns()
	if len(cols) != 2 || cols[0] != "T.a" {
		t.Errorf("cols = %v", cols)
	}
	out := st.String()
	if !strings.Contains(out, "T.a: content=") || !strings.Contains(out, "|content|=1") {
		t.Errorf("string = %q", out)
	}
}
