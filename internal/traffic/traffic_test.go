package traffic

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/interval"
	"repro/internal/sqlparser"
)

func TestClassifierBotVsHuman(t *testing.T) {
	c := NewClassifier(Config{})
	// Bot: 1-second cadence, single fingerprint, long run.
	var last string
	for i := 0; i < 40; i++ {
		last = c.Observe("bot01", int64(i), 42, "SELECT ra FROM PhotoObj WHERE objid = 1")
	}
	if last != Bot {
		t.Fatalf("regular low-diversity cadence classified %q, want %q", last, Bot)
	}
	if got := c.FinalClass("bot01"); got != Bot {
		t.Fatalf("FinalClass(bot01) = %q, want %q", got, Bot)
	}
	// Human: bursty, diverse fingerprints, irregular gaps.
	gaps := []int64{0, 3, 50, 7, 120, 2, 44, 9, 300, 5, 61, 13, 28, 90, 4, 17, 33, 150, 6, 21}
	tm := int64(0)
	for i, g := range gaps {
		tm += g
		last = c.Observe("u000001", tm, uint64(1000+i), "SELECT ra, dec FROM PhotoObj WHERE ra > 180")
	}
	if last != Human {
		t.Fatalf("bursty diverse traffic classified %q, want %q", last, Human)
	}
}

func TestClassifierAdminSticky(t *testing.T) {
	c := NewClassifier(Config{})
	if got := c.Observe("adm01", 0, 7, "CREATE TABLE mydb.results (objid bigint)"); got != Admin {
		t.Fatalf("DDL classified %q, want %q", got, Admin)
	}
	// Admin is sticky: subsequent plain SELECTs stay admin.
	if got := c.Observe("adm01", 10, 8, "SELECT 1"); got != Admin {
		t.Fatalf("post-DDL select classified %q, want %q", got, Admin)
	}
	if got := c.Observe("u1", 0, 9, "  declare @ra float"); got != Admin {
		t.Fatalf("DECLARE classified %q, want %q", got, Admin)
	}
	if got := c.Observe("u2", 0, 9, "SELECT create_time FROM t"); got == Admin {
		t.Fatal("SELECT mentioning 'create' in a column must not be admin")
	}
}

func TestClassifierOverrides(t *testing.T) {
	c := NewClassifier(Config{Overrides: map[string]string{"crawler": Bot, "dba": Admin}})
	if got := c.Observe("crawler", 0, 1, "SELECT 1"); got != Bot {
		t.Fatalf("override crawler = %q, want %q", got, Bot)
	}
	if got := c.FinalClass("dba"); got != Admin {
		t.Fatalf("override dba = %q, want %q", got, Admin)
	}
	counts := c.Counts()
	if counts[Bot] != 1 {
		t.Fatalf("counts[bot] = %d, want 1", counts[Bot])
	}
}

func TestClassifierSessionReset(t *testing.T) {
	c := NewClassifier(Config{})
	// Regular cadence long enough for the heuristic to fire, then a session
	// gap, then too few queries for it to re-fire: last record must be
	// human again.
	var cls string
	for i := 0; i < minQueries; i++ {
		cls = c.Observe("u9", int64(i), 5, "SELECT 1 FROM t")
	}
	if cls != Bot {
		t.Fatalf("query %d of a regular session classified %q, want %q", minQueries, cls, Bot)
	}
	got := c.Observe("u9", 10_000, 5, "SELECT 1 FROM t")
	if got != Human {
		t.Fatalf("first query of fresh session classified %q, want %q", got, Human)
	}
}

func TestClassifierStateRoundTrip(t *testing.T) {
	c := NewClassifier(Config{})
	for i := 0; i < 30; i++ {
		c.Observe("bot01", int64(i), 42, "SELECT 1 FROM t")
	}
	c.Observe("adm01", 5, 3, "DROP TABLE x")
	st := c.ExportState()
	b1, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewClassifier(Config{})
	var st2 ClassifierState
	if err := json.Unmarshal(b1, &st2); err != nil {
		t.Fatal(err)
	}
	c2.RestoreState(&st2)
	if !reflect.DeepEqual(c.UserClasses(), c2.UserClasses()) {
		t.Fatalf("restored classes %v != %v", c2.UserClasses(), c.UserClasses())
	}
	if !reflect.DeepEqual(c.Counts(), c2.Counts()) {
		t.Fatalf("restored counts %v != %v", c2.Counts(), c.Counts())
	}
	// Continued observation must agree.
	g1 := c.Observe("bot01", 30, 42, "SELECT 1 FROM t")
	g2 := c2.Observe("bot01", 30, 42, "SELECT 1 FROM t")
	if g1 != g2 {
		t.Fatalf("post-restore observation diverged: %q vs %q", g1, g2)
	}
}

func summary(card int, rel string, col string, lo, hi float64) *aggregate.Summary {
	box := interval.NewBox()
	box.Set(col, interval.Interval{Lo: lo, Hi: hi})
	return &aggregate.Summary{
		Cardinality: card,
		Relations:   []string{rel},
		Box:         box,
	}
}

func TestDriftLifecycle(t *testing.T) {
	d := NewDrift()
	a := summary(100, "PhotoObj", "PhotoObj.ra", 100, 200)

	ev := d.Observe(Bot, 1, []*aggregate.Summary{a})
	if len(ev) != 1 || ev[0].Kind != DriftAppeared || ev[0].Class != Bot {
		t.Fatalf("first epoch events = %+v, want one appeared", ev)
	}

	// Same box, cardinality +50%: grew.
	b := summary(150, "PhotoObj", "PhotoObj.ra", 100, 200)
	ev = d.Observe(Bot, 2, []*aggregate.Summary{b})
	if len(ev) != 1 || ev[0].Kind != DriftGrew || ev[0].PrevCardinality != 100 {
		t.Fatalf("epoch 2 events = %+v, want one grew from 100", ev)
	}

	// Slight wobble (<10%): silence.
	cl := summary(155, "PhotoObj", "PhotoObj.ra", 102, 202)
	ev = d.Observe(Bot, 3, []*aggregate.Summary{cl})
	if len(ev) != 0 {
		t.Fatalf("epoch 3 events = %+v, want none", ev)
	}

	// Far-away box on the same relation/columns: old vanishes, new appears.
	far := summary(80, "PhotoObj", "PhotoObj.ra", 5000, 6000)
	ev = d.Observe(Bot, 4, []*aggregate.Summary{far})
	kinds := map[string]bool{}
	for _, e := range ev {
		kinds[e.Kind] = true
	}
	if len(ev) != 2 || !kinds[DriftAppeared] || !kinds[DriftVanished] {
		t.Fatalf("epoch 4 events = %+v, want appeared+vanished", ev)
	}

	// Empty epoch: everything vanishes.
	ev = d.Observe(Bot, 5, nil)
	if len(ev) != 1 || ev[0].Kind != DriftVanished {
		t.Fatalf("epoch 5 events = %+v, want one vanished", ev)
	}

	if got := len(d.Events(Bot)); got != 5 {
		t.Fatalf("retained events = %d, want 5", got)
	}
	if got := len(d.Events(Human)); got != 0 {
		t.Fatalf("human events = %d, want 0", got)
	}
}

func TestDriftClassIsolationAndDeterminism(t *testing.T) {
	run := func() []byte {
		d := NewDrift()
		d.Observe(Bot, 1, []*aggregate.Summary{summary(10, "PhotoObj", "PhotoObj.ra", 0, 10)})
		d.Observe(Human, 1, []*aggregate.Summary{summary(20, "SpecObj", "SpecObj.z", 0, 1)})
		d.Observe(Bot, 2, []*aggregate.Summary{summary(30, "PhotoObj", "PhotoObj.ra", 0, 10)})
		d.Observe(Human, 2, nil)
		b, err := json.Marshal(d.Events(""))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := run(), run()
	if string(b1) != string(b2) {
		t.Fatalf("drift sequences differ:\n%s\n%s", b1, b2)
	}
}

func TestDriftInfiniteEndpoints(t *testing.T) {
	d := NewDrift()
	ray := func(card int, lo float64) *aggregate.Summary {
		box := interval.NewBox()
		iv := interval.Full()
		iv.Lo = lo
		box.Set("PhotoObj.ra", iv)
		return &aggregate.Summary{Cardinality: card, Relations: []string{"PhotoObj"}, Box: box}
	}
	d.Observe(Bot, 1, []*aggregate.Summary{ray(100, 180)})
	// The ray's finite end wiggles 1% — matches, no event.
	ev := d.Observe(Bot, 2, []*aggregate.Summary{ray(105, 182)})
	if len(ev) != 0 {
		t.Fatalf("wiggling ray events = %+v, want none", ev)
	}
	// Bounded interval vs ray never matches.
	ev = d.Observe(Bot, 3, []*aggregate.Summary{summary(100, "PhotoObj", "PhotoObj.ra", 180, 200)})
	kinds := map[string]bool{}
	for _, e := range ev {
		kinds[e.Kind] = true
	}
	if len(ev) != 2 || !kinds[DriftAppeared] || !kinds[DriftVanished] {
		t.Fatalf("ray→interval events = %+v, want appeared+vanished", ev)
	}
}

func TestDriftStateRoundTrip(t *testing.T) {
	d := NewDrift()
	d.Observe(Bot, 1, []*aggregate.Summary{summary(10, "PhotoObj", "PhotoObj.ra", 0, 10)})
	st := d.ExportState()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDrift()
	var st2 DriftState
	if err := json.Unmarshal(b, &st2); err != nil {
		t.Fatal(err)
	}
	d2.RestoreState(&st2)
	e1 := d.Observe(Bot, 2, []*aggregate.Summary{summary(30, "PhotoObj", "PhotoObj.ra", 0, 10)})
	e2 := d2.Observe(Bot, 2, []*aggregate.Summary{summary(30, "PhotoObj", "PhotoObj.ra", 0, 10)})
	if !reflect.DeepEqual(e1, e2) {
		t.Fatalf("post-restore drift diverged: %+v vs %+v", e2, e1)
	}
}

func TestInterfacesObserveRender(t *testing.T) {
	x := NewInterfaces(0, 0)
	sqlA := "SELECT ra FROM PhotoObj WHERE ra > 180 AND name = 'bright'"
	fpA, litsA, err := sqlparser.Fingerprint(sqlA)
	if err != nil {
		t.Fatal(err)
	}
	sqlA2 := "SELECT ra FROM PhotoObj WHERE ra > 190 AND name = 'faint'"
	fpA2, litsA2, err := sqlparser.Fingerprint(sqlA2)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpA2 {
		t.Fatalf("same template fingerprints differ: %x vs %x", fpA, fpA2)
	}
	sqlB := "SELECT z FROM SpecObj WHERE z < 1"
	fpB, litsB, err := sqlparser.Fingerprint(sqlB)
	if err != nil {
		t.Fatal(err)
	}

	x.Observe(fpA, sqlA, litsA)
	x.Observe(fpA, sqlA2, litsA2)
	x.Observe(fpB, sqlB, litsB)

	out := x.Render(10, nil)
	if len(out) != 2 {
		t.Fatalf("rendered %d interfaces, want 2", len(out))
	}
	// Top by hits.
	if out[0].Hits != 2 || out[1].Hits != 1 {
		t.Fatalf("hit order wrong: %+v", out)
	}
	if len(out[0].Params) != 2 {
		t.Fatalf("interface A params = %+v, want 2 slots", out[0].Params)
	}
	num := out[0].Params[0]
	if num.Type != "number" || num.Min != "180" || num.Max != "190" || num.Count != 2 {
		t.Fatalf("numeric slot = %+v, want range [180,190] count 2", num)
	}
	str := out[0].Params[1]
	if str.Type != "string" || len(str.Samples) != 2 {
		t.Fatalf("string slot = %+v, want 2 samples", str)
	}
	if out[0].Skeleton == "" {
		t.Fatal("skeleton must be non-empty")
	}

	// Top-1 keeps only the hotter interface.
	if one := x.Render(1, nil); len(one) != 1 || one[0].Fingerprint != out[0].Fingerprint {
		t.Fatalf("Render(1) = %+v", one)
	}
}

func TestInterfacesBoundsAndTies(t *testing.T) {
	x := NewInterfaces(2, 2)
	x.Observe(1, "SELECT a FROM t WHERE a = 1", []sqlparser.Literal{{Kind: sqlparser.Number, Num: 1, Text: "1"}})
	x.Observe(2, "SELECT b FROM t WHERE b = 2", []sqlparser.Literal{{Kind: sqlparser.Number, Num: 2, Text: "2"}})
	// Past the fp bound: ignored.
	x.Observe(3, "SELECT c FROM t", nil)
	if x.Len() != 2 {
		t.Fatalf("tracked fps = %d, want 2", x.Len())
	}
	// Equal hits: first-seen order breaks the tie.
	out := x.Render(10, nil)
	if out[0].Fingerprint != "1" || out[1].Fingerprint != "2" {
		t.Fatalf("tie order = %v", []string{out[0].Fingerprint, out[1].Fingerprint})
	}
	// Sample cap: third distinct value is dropped.
	for _, v := range []string{"x", "y", "z"} {
		x.Observe(1, "", []sqlparser.Literal{{Kind: sqlparser.String, Str: v}})
	}
	out = x.Render(1, nil)
	if got := len(out[0].Params[0].Samples); got > 2 {
		t.Fatalf("samples = %d, want ≤ 2", got)
	}
}

func TestInterfacesStateRoundTrip(t *testing.T) {
	x := NewInterfaces(0, 0)
	sql := "SELECT ra FROM PhotoObj WHERE ra BETWEEN 10 AND 20"
	fp, lits, err := sqlparser.Fingerprint(sql)
	if err != nil {
		t.Fatal(err)
	}
	x.Observe(fp, sql, lits)
	b, err := json.Marshal(x.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	x2 := NewInterfaces(0, 0)
	var st InterfacesState
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	x2.RestoreState(&st)
	r1, _ := json.Marshal(x.Render(10, nil))
	r2, _ := json.Marshal(x2.Render(10, nil))
	if string(r1) != string(r2) {
		t.Fatalf("restored render differs:\n%s\n%s", r1, r2)
	}
}
