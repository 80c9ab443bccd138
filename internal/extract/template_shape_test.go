package extract

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/predicate"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
)

// sameArea reports whether two areas agree field for field — CNF values with
// Text, Slot and NegDepth included — and on Key(), which tells -0 from 0
// where reflect.DeepEqual does not.
func sameArea(a, b *AccessArea) bool {
	return reflect.DeepEqual(a, b) && a.Key() == b.Key()
}

// rebindLog runs every statement of entries through one template cache the
// way the ladder's template rung does (a fingerprint's first statement takes
// the full path and stores the template, the rest rebind), with no memo in
// front, and calls check on each rebind with its tier.
func rebindLog(t *testing.T, ex *Extractor, entries []skyserver.LogEntry, check func(sql string, area *AccessArea, tier rebindTier)) {
	t.Helper()
	cache := &TemplateCache{}
	for _, e := range entries {
		fp, lits, err := sqlparser.Fingerprint(e.SQL)
		if err != nil || anyBadNum(lits) {
			continue
		}
		tmpl, ok := cache.Get(fp)
		if !ok {
			ex.parseExtract(e.SQL, cache, fp)
			continue
		}
		if area, _, tier, ok := tmpl.rebind(ex, lits); ok {
			check(e.SQL, area, tier)
		}
	}
}

// Every area a shape serves equals the uncached path's for the same text:
// the whole AccessArea (CNF with Text, Slot and NegDepth, Exact, Truncated,
// Relations, Referenced) and its Key, over the paper-shaped and the mixed
// workload at three seeds.
func TestShapeRebindMatchesFullPath(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 3000
	}
	ex := New(skyserver.Schema())
	for _, seed := range []int64{1, 7, 42} {
		cfg := skyserver.WorkloadConfig{Queries: n, Seed: seed}
		logs := map[string][]skyserver.LogEntry{
			"GenerateLog":      skyserver.GenerateLog(cfg),
			"GenerateMixedLog": skyserver.GenerateMixedLog(cfg, skyserver.ClassMix{}),
		}
		for name, entries := range logs {
			served, mismatches := 0, 0
			rebindLog(t, ex, entries, func(sql string, area *AccessArea, tier rebindTier) {
				if tier != tierShape {
					return
				}
				served++
				want, _, _ := ex.parseExtract(sql, nil, 0)
				if want.Area == nil || !sameArea(want.Area, area) {
					mismatches++
					if mismatches <= 3 {
						t.Errorf("%s seed %d: shape rebind of %q\n got %+v\nwant %+v", name, seed, sql, area, want.Area)
					}
				}
			})
			t.Logf("%s %d/seed %d: %d shape rebinds, %d mismatches", name, n, seed, served, mismatches)
			if served < n/4 {
				t.Errorf("%s seed %d: only %d shape rebinds", name, seed, served)
			}
		}
	}
}

// The shape tier takes range templates off the slow path: on the
// paper-shaped log, slow rebinds are under 10% of all rebinds (65% before
// shapes: 11,510 of 17,718).
func TestRebindSlowShare(t *testing.T) {
	ex := New(skyserver.Schema())
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 20000, Seed: 42})
	count := map[rebindTier]int{}
	rebindLog(t, ex, entries, func(_ string, _ *AccessArea, tier rebindTier) { count[tier]++ })
	total := count[tierA] + count[tierShape] + count[tierSlow]
	t.Logf("rebinds %d: tier A %d, shape %d, slow %d", total, count[tierA], count[tierShape], count[tierSlow])
	if total == 0 || float64(count[tierSlow]) >= 0.10*float64(total) {
		t.Fatalf("slow rebinds %d of %d, want under 10%%", count[tierSlow], total)
	}
}

// The order pattern compares the key suffixes Pred.Key renders; the two must
// agree byte for byte, or the pattern would not fix the sort order.
func TestBoundKeyMatchesPredKey(t *testing.T) {
	vals := []predicate.Value{
		predicate.Number(0), predicate.Number(math.Copysign(0, -1)), predicate.Number(-1.5),
		predicate.Number(1e-310), predicate.Number(3), predicate.Str("GALAXY"), predicate.Str("it's"),
	}
	for _, v := range vals {
		key, _ := appendBoundKey(nil, v, nil)
		p := predicate.CC("T.u", predicate.Lt, v)
		if want := p.Key(); "T.u<"+string(key) != want {
			t.Errorf("bound key of %v: %q, Pred.Key %q", v, "T.u<"+string(key), want)
		}
	}
}

// shapeFuzzTemplates are statement shapes whose constants share columns —
// the shapes tier A refuses — with %s for each numeric or string constant.
var shapeFuzzTemplates = []string{
	"SELECT * FROM T WHERE u BETWEEN %s AND %s",
	"SELECT * FROM T WHERE u >= %s AND u <= %s AND v > %s",
	"SELECT * FROM T WHERE u NOT BETWEEN %s AND %s",
	"SELECT * FROM T WHERE (u < %s OR u > %s) AND u <> %s",
	"SELECT * FROM T WHERE u = %s OR u = %s OR u < %s",
	"SELECT * FROM T WHERE u > %s AND NOT (u > %s) AND v = %s",
	"SELECT * FROM T WHERE u IN (%s, %s, %s)",
	"SELECT * FROM T WHERE (u > %s AND v < %s) OR (u < %s AND v > 1)",
	"SELECT * FROM T WHERE u < v AND u >= %s AND u < %s",
	"SELECT * FROM T WHERE u >= 0 AND u < %s AND u <> %s",
	"SELECT * FROM SpecObjAll WHERE class = %s OR class = %s OR plate BETWEEN %s AND 9",
	"SELECT * FROM SpecObjAll WHERE class = %s AND class <> %s AND plate > %s",
}

// shapeFuzzNumbers is the palette fuzzed constants draw from: ties,
// negatives, zeros (-0 included) and values whose key suffixes sort on both
// sides of the operator bytes.
var shapeFuzzNumbers = []string{"0", "-0", "1", "-1", "1.0", "2.5", "-2.5", "7", "100", "1e-300", "-1e-300", "3e8"}

var shapeFuzzStrings = []string{"'GALAXY'", "'QSO'", "'STAR'", "'GAL'", "''"}

// fuzzSQL renders template ti with constants picked by the bytes of sel.
func fuzzSQL(ti int, sel []byte) string {
	tmpl := shapeFuzzTemplates[ti%len(shapeFuzzTemplates)]
	n := strings.Count(tmpl, "%s")
	args := make([]any, n)
	strs := strings.HasPrefix(tmpl, "SELECT * FROM SpecObjAll")
	for i := range args {
		var b byte
		if i < len(sel) {
			b = sel[i]
		}
		if strs && i < 2 {
			args[i] = shapeFuzzStrings[int(b)%len(shapeFuzzStrings)]
		} else {
			args[i] = shapeFuzzNumbers[int(b)%len(shapeFuzzNumbers)]
		}
	}
	return fmt.Sprintf(tmpl, args...)
}

// respell writes each number of sql with another spelling of the same value
// ("7" → "7.0"), which keeps the order pattern and changes only source Text.
func respell(sql string) string {
	var b strings.Builder
	for i, f := range strings.Fields(sql) {
		if i > 0 {
			b.WriteByte(' ')
		}
		core := strings.TrimRight(f, ",)")
		if _, err := strconv.ParseFloat(core, 64); err == nil && !strings.ContainsAny(core, ".e") {
			f = core + ".0" + f[len(core):]
		}
		b.WriteString(f)
	}
	return b.String()
}

// FuzzRebindShape draws constant assignments for the shape templates and
// checks every rebind — shape-served or slow — against the full path. A
// respelled copy of each statement has the same order pattern, so once the
// first rebind learned a shape the copy must be served by it.
func FuzzRebindShape(f *testing.F) {
	f.Add(uint8(0), []byte{4, 3})     // BETWEEN 1.0 AND -1: crossed
	f.Add(uint8(0), []byte{2, 4})     // BETWEEN 1 AND 1.0: a tie
	f.Add(uint8(0), []byte{0, 1})     // BETWEEN 0 AND -0: a numeric tie, two keys
	f.Add(uint8(1), []byte{6, 5, 1})  // -2.5 .. 2.5, v > -0
	f.Add(uint8(2), []byte{7, 3})     // NOT BETWEEN 7 AND -1: crossed
	f.Add(uint8(3), []byte{3, 3, 3})  // u < -1 OR u > -1 AND u <> -1
	f.Add(uint8(4), []byte{1, 0, 1})  // -0, 0, -0
	f.Add(uint8(5), []byte{8, 7, 10}) // 100, 7, -1e-300
	f.Add(uint8(6), []byte{2, 2, 4})
	f.Add(uint8(7), []byte{9, 11, 6})
	f.Add(uint8(8), []byte{11, 10})
	f.Add(uint8(9), []byte{2, 0})
	f.Add(uint8(10), []byte{0, 0, 4})
	f.Add(uint8(11), []byte{1, 1, 3})
	ex := New(testSchema())
	templates := map[uint64]*AreaTemplate{}
	f.Fuzz(func(t *testing.T, ti uint8, sel []byte) {
		sql := fuzzSQL(int(ti), sel)
		rebind := func(sql string) rebindTier {
			fp, lits, err := sqlparser.Fingerprint(sql)
			if err != nil {
				t.Fatalf("%q: %v", sql, err)
			}
			tmpl := templates[fp]
			if tmpl == nil {
				_, _, tmpl, err = ex.extractTemplate(parseSel(t, sql))
				if err != nil {
					t.Fatalf("%q: %v", sql, err)
				}
				templates[fp] = tmpl
			}
			got, _, tier, ok := tmpl.rebind(ex, lits)
			if !ok {
				t.Fatalf("%q: rebind refused", sql)
			}
			want, _, _ := ex.parseExtract(sql, nil, 0)
			if want.Area == nil || !sameArea(want.Area, got) {
				t.Fatalf("%q (tier %d):\n got %q %+v\nwant %q %+v", sql, tier, got.Key(), got.CNF, want.Area.Key(), want.Area.CNF)
			}
			return tier
		}
		first := rebind(sql)
		if second := rebind(respell(sql)); first == tierSlow && second == tierSlow {
			fp, lits, _ := sqlparser.Fingerprint(sql)
			if pat, ok := templates[fp].order.pattern(lits); ok {
				if sh := templates[fp].shapeFor(pat); sh != nil && !sh.slow {
					t.Fatalf("%q: a respelled copy took the slow path past its shape", sql)
				}
			}
		}
	})
}

// A template keeps at most MaxShapesPerTemplate patterns: a binding with a
// new pattern past the bound takes the slow path, is counted as a refusal,
// and still equals the full path.
func TestShapesPerTemplateBounded(t *testing.T) {
	ex := New(testSchema())
	const tmpl = "SELECT * FROM T WHERE u > %d AND u < %d AND u <> %d AND u <> %d"
	_, _, at, err := ex.extractTemplate(parseSel(t, fmt.Sprintf(tmpl, 1, 2, 3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	before := shapeRefusals.Value()
	for i := 0; i < 4*4*4*4; i++ {
		sql := fmt.Sprintf(tmpl, i%4, i/4%4, i/16%4, i/64)
		_, lits, err := sqlparser.Fingerprint(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, ok := at.rebind(ex, lits)
		want, _, _ := ex.parseExtract(sql, nil, 0)
		if !ok || want.Area == nil || !sameArea(want.Area, got) {
			t.Fatalf("%q: rebind %+v, full path %+v", sql, got, want.Area)
		}
	}
	if n := len(*at.shapes.Load()); n != MaxShapesPerTemplate {
		t.Errorf("template holds %d shapes, want the bound %d", n, MaxShapesPerTemplate)
	}
	if shapeRefusals.Value() == before {
		t.Error("no shape refusal counted past the bound")
	}
}
