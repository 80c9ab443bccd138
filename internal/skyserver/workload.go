package skyserver

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/interval"
)

// LogEntry is one query-log record.
type LogEntry struct {
	Seq  int
	Time int64 // logical seconds since log start
	User string
	SQL  string
	// Template is the ground-truth workload label ("cluster01".."cluster24",
	// "noise", "error", "admin", "mysql", "bigpred"); it never reaches the
	// pipeline and exists for evaluation only.
	Template string
}

// WorkloadConfig controls the synthetic log.
type WorkloadConfig struct {
	// Queries is the total log size. Default 20000.
	Queries int
	// Seed drives the deterministic generator.
	Seed int64
	// NoiseFraction is the share of unclustered background queries
	// (default 0.12).
	NoiseFraction float64
	// ErrorFraction is the share of statements the parser must reject —
	// syntax errors, SkyServer UDFs, admin DDL (default 0.0054, the
	// paper's 67,563 / 12,442,989).
	ErrorFraction float64
}

const (
	// mysqlFraction is the share of MySQL-dialect queries (parse fine,
	// would error on SkyServer).
	mysqlFraction = 0.002
	// bigPredFraction is the share of queries with more than 35 predicates
	// (≈ 0.000038, floored to at least one query).
	bigPredFraction = 471.0 / 12442989.0
	// variantFraction is the share of each template's queries phrased via
	// alternate SQL forms — aggregates with vacuous HAVING, NOT-wrapped
	// ranges, EXISTS/IN nesting, join reorderings. These exercise the
	// Section 4.2-4.4 mappings and are what breaks the raw-predicate
	// OLAPClus baseline in Section 6.5.
	variantFraction = 0.2
)

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.Queries <= 0 {
		c.Queries = 20000
	}
	if c.NoiseFraction == 0 {
		c.NoiseFraction = 0.12
	}
	if c.ErrorFraction == 0 {
		c.ErrorFraction = 0.0054
	}
	return c
}

// template describes one Table-1 cluster workload.
type template struct {
	name string
	// weight is the paper's Table-1 cardinality; per-template counts are
	// allocated proportionally (with a floor so every cluster stays
	// detectable at small scale).
	weight int
	gen    func(r *rand.Rand, variant bool) string
}

// fint formats a float as an exact integer literal (18-digit object IDs).
func fint(v float64) string {
	return strconv.FormatFloat(math.Trunc(v), 'f', -1, 64)
}

// ffloat formats a float constant with limited precision so identical-ish
// queries deduplicate naturally.
func ffloat(v float64, prec int) string {
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// subRange draws a random subinterval of iv: centre uniform, width a
// fraction of the window.
func subRange(r *rand.Rand, iv interval.Interval, minFrac, maxFrac float64) (float64, float64) {
	w := iv.Width()
	width := (minFrac + r.Float64()*(maxFrac-minFrac)) * w
	lo := iv.Lo + r.Float64()*(w-width)
	return lo, lo + width
}

// Table-1 cluster windows (the ground-truth access areas the generator
// draws constants from; the paper's Table 1 column "Access area").
var (
	win1   = interval.Closed(1.237657855534432934e18, 1.237666210342830434e18) // Photoz.objid
	win2   = interval.Closed(1.115887524498139136e18, 2.183177975464224768e18) // SpecObjAll.specobjid
	win3   = interval.Closed(1.345591721622267904e18, 2.007633797213874176e18) // galSpecLine.specobjid
	win4   = interval.Closed(1.4161923255970304e18, 2.183213984470034432e18)   // galSpecInfo.specobjid
	win6   = interval.Closed(1.228357946564438016e18, 2.069493422263134208e18) // sppLines.specobjid
	win7   = interval.Closed(54, 115)                                          // SpecObjAll.ra
	win8   = interval.Closed(60, 124)                                          // SpecPhotoAll.ra
	win9m  = interval.Closed(51578, 52178)                                     // SpecObjAll.mjd
	win9p  = interval.Closed(296, 3200)                                        // SpecObjAll.plate
	win11  = interval.Closed(55, 141)                                          // emissionLinesPort.ra
	win12  = interval.Closed(62, 138)                                          // stellarMassPCAWisc.ra
	win13  = 1.237676243900255188e18                                           // AtlasOutline.objid >
	win14r = interval.Closed(2, 120)                                           // zooSpec.ra
	win14d = interval.Closed(30, 70)                                           // zooSpec.dec
	win15  = interval.Closed(0, 0.1)                                           // Photoz.z
	win18r = interval.Closed(10, 120)                                          // PhotoObjAll.ra (empty dec)
	win18d = interval.Closed(-90, -50)                                         // PhotoObjAll.dec (empty)
	win19  = interval.Closed(3.519644828126257152e18, 5.788299621113984e18)    // galSpecLine empty
	win21  = interval.Closed(4.037480726273651712e18, 5.788299621113984e18)    // sppLines empty
	win22r = interval.Closed(6, 115)                                           // zooSpec.ra (empty dec)
	win22d = interval.Closed(-100, -15)                                        // zooSpec.dec incl. the -100 anomaly
	win23  = interval.Closed(-0.98, -0.1)                                      // Photoz.z empty (negative)
	win24  = interval.Closed(3.0, 6.5)                                         // Photoz.z empty (high)
)

// specobjidRange builds the shared shape of the specobjid-range templates
// (clusters 2-4, 6, 19-21): plain range, BETWEEN, NOT-wrapped range, or an
// aggregate with vacuous HAVING.
func specobjidRange(table, column string, win interval.Interval) func(*rand.Rand, bool) string {
	return func(r *rand.Rand, variant bool) string {
		lo, hi := subRange(r, win, 0.05, 0.6)
		a, b := fint(lo), fint(hi)
		if !variant {
			switch r.Intn(3) {
			case 0:
				return fmt.Sprintf("SELECT * FROM %s WHERE %s BETWEEN %s AND %s", table, column, a, b)
			case 1:
				return fmt.Sprintf("SELECT %s FROM %s WHERE %s >= %s AND %s <= %s", column, table, column, a, column, b)
			default:
				return fmt.Sprintf("SELECT TOP 100 * FROM %s WHERE %s >= %s AND %s <= %s ORDER BY %s", table, column, a, column, b, column)
			}
		}
		switch r.Intn(3) {
		case 0:
			// NOT-wrapped range: same access area after NNF push-down.
			return fmt.Sprintf("SELECT * FROM %s WHERE NOT (%s < %s OR %s > %s)", table, column, a, column, b)
		case 1:
			// Aggregate with vacuous HAVING (COUNT is always paddable).
			return fmt.Sprintf("SELECT %s, COUNT(*) FROM %s WHERE %s BETWEEN %s AND %s GROUP BY %s HAVING COUNT(*) > 1",
				column, table, column, a, b, column)
		default:
			// Vacuous SUM > c over an unbounded-domain column.
			return fmt.Sprintf("SELECT %s, SUM(%s) FROM %s WHERE %s >= %s AND %s <= %s GROUP BY %s HAVING SUM(%s) > 10",
				column, column, table, column, a, column, b, column, column)
		}
	}
}

// raRange builds the right-ascension band templates (clusters 7, 8, 11, 12).
func raRange(table string, win interval.Interval) func(*rand.Rand, bool) string {
	return func(r *rand.Rand, variant bool) string {
		lo, hi := subRange(r, win, 0.3, 0.95)
		a, b := ffloat(lo, 1), ffloat(hi, 1)
		if !variant {
			if r.Intn(2) == 0 {
				return fmt.Sprintf("SELECT ra FROM %s WHERE ra BETWEEN %s AND %s", table, a, b)
			}
			return fmt.Sprintf("SELECT * FROM %s WHERE ra >= %s AND ra <= %s", table, a, b)
		}
		return fmt.Sprintf("SELECT ra, COUNT(*) FROM %s WHERE ra >= %s AND ra <= %s GROUP BY ra HAVING COUNT(*) >= 1",
			table, a, b)
	}
}

// rectQuery builds two-column rectangle templates.
func rectQuery(table, xcol, ycol string, xwin, ywin interval.Interval, oneSided bool) func(*rand.Rand, bool) string {
	return rectQueryFrac(table, xcol, ycol, xwin, ywin, oneSided, 0.4, 0.95)
}

func rectQueryFrac(table, xcol, ycol string, xwin, ywin interval.Interval, oneSided bool, minFrac, maxFrac float64) func(*rand.Rand, bool) string {
	return func(r *rand.Rand, variant bool) string {
		if oneSided {
			x := ffloat(xwin.Lo+r.Float64()*xwin.Width(), 1)
			y := ffloat(ywin.Lo+r.Float64()*ywin.Width(), 1)
			if !variant {
				return fmt.Sprintf("SELECT TOP 50 %s, %s FROM %s WHERE %s <= %s AND %s <= %s",
					xcol, ycol, table, xcol, x, ycol, y)
			}
			return fmt.Sprintf("SELECT %s, MIN(%s) FROM %s WHERE %s <= %s AND %s <= %s GROUP BY %s HAVING MIN(%s) > -9999",
				xcol, ycol, table, xcol, x, ycol, y, xcol, ycol)
		}
		x1, x2 := subRange(r, xwin, minFrac, maxFrac)
		y1, y2 := subRange(r, ywin, minFrac, maxFrac)
		if !variant {
			return fmt.Sprintf("SELECT * FROM %s WHERE %s BETWEEN %s AND %s AND %s BETWEEN %s AND %s",
				table, xcol, ffloat(x1, 1), ffloat(x2, 1), ycol, ffloat(y1, 1), ffloat(y2, 1))
		}
		return fmt.Sprintf("SELECT * FROM %s WHERE NOT (%s < %s OR %s > %s) AND %s >= %s AND %s <= %s",
			table, xcol, ffloat(x1, 1), xcol, ffloat(x2, 1), ycol, ffloat(y1, 1), ycol, ffloat(y2, 1))
	}
}

// templates returns the 24 Table-1 workloads.
func templates() []template {
	return []template{
		{"cluster01", 179072, func(r *rand.Rand, variant bool) string {
			// Photoz.objid = c, constants dense within win1.
			c := fint(win1.Lo + r.Float64()*win1.Width())
			if !variant {
				return fmt.Sprintf("SELECT z FROM Photoz WHERE objid = %s", c)
			}
			return fmt.Sprintf("SELECT * FROM Photoz WHERE objid IN (%s)", c)
		}},
		{"cluster02", 121311, specobjidRange("SpecObjAll", "specobjid", win2)},
		{"cluster03", 92177, specobjidRange("galSpecLine", "specobjid", win3)},
		{"cluster04", 90047, specobjidRange("galSpecInfo", "specobjid", win4)},
		{"cluster05", 90015, rectQuery("PhotoObjAll", "ra", "dec",
			interval.Closed(190, 210), interval.Closed(5, 10), true)},
		{"cluster06", 82196, specobjidRange("sppLines", "specobjid", win6)},
		{"cluster07", 23021, raRange("SpecObjAll", win7)},
		{"cluster08", 23021, raRange("SpecPhotoAll", win8)},
		{"cluster09", 18904, func(r *rand.Rand, variant bool) string {
			m1, m2 := subRange(r, win9m, 0.3, 0.9)
			p1, p2 := subRange(r, win9p, 0.3, 0.9)
			if !variant {
				return fmt.Sprintf(
					"SELECT * FROM SpecObjAll WHERE class = 'star' AND mjd BETWEEN %s AND %s AND plate BETWEEN %s AND %s",
					ffloat(m1, 0), ffloat(m2, 0), ffloat(p1, 0), ffloat(p2, 0))
			}
			return fmt.Sprintf(
				"SELECT plate, COUNT(*) FROM SpecObjAll WHERE class LIKE 'star' AND mjd >= %s AND mjd <= %s AND plate >= %s AND plate <= %s GROUP BY plate HAVING COUNT(*) > 2",
				ffloat(m1, 0), ffloat(m2, 0), ffloat(p1, 0), ffloat(p2, 0))
		}},
		{"cluster10", 10141, func(r *rand.Rand, variant bool) string {
			if !variant {
				return "SELECT name FROM DBObjects WHERE access = 'U' AND (type = 'V' OR type = 'U')"
			}
			return "SELECT name FROM DBObjects WHERE access = 'U' AND type IN ('V', 'U')"
		}},
		{"cluster11", 4006, raRange("emissionLinesPort", win11)},
		{"cluster12", 3785, raRange("stellarMassPCAWisc", win12)},
		{"cluster13", 1622, func(r *rand.Rand, variant bool) string {
			c := fint(win13 + r.Float64()*1e12)
			if !variant {
				return fmt.Sprintf("SELECT objid FROM AtlasOutline WHERE objid > %s", c)
			}
			return fmt.Sprintf("SELECT * FROM AtlasOutline WHERE NOT (objid <= %s)", c)
		}},
		{"cluster14", 1371, rectQueryFrac("zooSpec", "ra", "dec", win14r, win14d, false, 0.7, 0.95)},
		{"cluster15", 1141, func(r *rand.Rand, variant bool) string {
			lo, hi := subRange(r, win15, 0.5, 1.0)
			if !variant {
				return fmt.Sprintf("SELECT objid FROM Photoz WHERE z >= %s AND z <= %s", ffloat(lo, 3), ffloat(hi, 3))
			}
			return fmt.Sprintf("SELECT objid FROM Photoz WHERE z BETWEEN %s AND %s", ffloat(lo, 3), ffloat(hi, 3))
		}},
		{"cluster16", 1102, func(r *rand.Rand, variant bool) string {
			b1, b2 := subRange(r, interval.Closed(0, 3), 0.8, 1.0)
			switch {
			case !variant:
				return fmt.Sprintf(
					"SELECT * FROM galSpecExtra JOIN galSpecIndx ON galSpecExtra.specobjid = galSpecIndx.specObjID WHERE galSpecExtra.bptclass BETWEEN %s AND %s",
					ffloat(b1, 0), ffloat(b2, 0))
			case r.Intn(2) == 0:
				return fmt.Sprintf(
					"SELECT * FROM galSpecExtra, galSpecIndx WHERE galSpecExtra.specobjid = galSpecIndx.specObjID AND galSpecExtra.bptclass >= %s AND galSpecExtra.bptclass <= %s",
					ffloat(b1, 0), ffloat(b2, 0))
			default:
				return fmt.Sprintf(
					"SELECT * FROM galSpecExtra WHERE galSpecExtra.bptclass >= %s AND galSpecExtra.bptclass <= %s AND EXISTS (SELECT * FROM galSpecIndx WHERE galSpecIndx.specObjID = galSpecExtra.specobjid)",
					ffloat(b1, 0), ffloat(b2, 0))
			}
		}},
		{"cluster17", 1035, func(r *rand.Rand, variant bool) string {
			f1, f2 := subRange(r, interval.Closed(-0.3, 0.5), 0.7, 1.0)
			g1, g2 := subRange(r, interval.Closed(2, 3), 0.7, 1.0)
			side := ffloat(40+r.Float64()*10, 0)
			if !variant {
				return fmt.Sprintf(
					"SELECT * FROM sppLines JOIN sppParams ON sppLines.specobjid = sppParams.specobjid WHERE sppLines.gwholemask = 0 AND sppLines.gwholeside <= %s AND sppParams.fehadop BETWEEN %s AND %s AND sppParams.loggadop BETWEEN %s AND %s",
					side, ffloat(f1, 2), ffloat(f2, 2), ffloat(g1, 2), ffloat(g2, 2))
			}
			return fmt.Sprintf(
				"SELECT * FROM sppLines, sppParams WHERE sppLines.specobjid = sppParams.specobjid AND sppLines.gwholemask = 0 AND sppLines.gwholeside >= 0 AND sppLines.gwholeside <= %s AND sppParams.fehadop >= %s AND sppParams.fehadop <= %s AND sppParams.loggadop >= %s AND sppParams.loggadop <= %s",
				side, ffloat(f1, 2), ffloat(f2, 2), ffloat(g1, 2), ffloat(g2, 2))
		}},
		{"cluster18", 48470, rectQuery("PhotoObjAll", "ra", "dec", win18r, win18d, false)},
		{"cluster19", 41599, specobjidRange("galSpecLine", "specobjid", win19)},
		{"cluster20", 18444, specobjidRange("galSpecInfo", "specobjid", win19)},
		{"cluster21", 18043, specobjidRange("sppLines", "specobjid", win21)},
		{"cluster22", 1358, rectQueryFrac("zooSpec", "ra", "dec", win22r, win22d, false, 0.7, 0.95)},
		{"cluster23", 422, func(r *rand.Rand, variant bool) string {
			lo, hi := subRange(r, win23, 0.7, 1.0)
			return fmt.Sprintf("SELECT objid FROM Photoz WHERE z >= %s AND z <= %s", ffloat(lo, 2), ffloat(hi, 2))
		}},
		{"cluster24", 217, func(r *rand.Rand, variant bool) string {
			lo, hi := subRange(r, win24, 0.85, 1.0)
			return fmt.Sprintf("SELECT objid FROM Photoz WHERE z >= %s AND z <= %s", ffloat(lo, 1), ffloat(hi, 1))
		}},
	}
}

// noiseTables are the single-numeric-column probes background queries hit.
var noiseProbes = []struct {
	table, col string
	win        interval.Interval
	prec       int
}{
	{"PhotoObjAll", "ra", interval.Closed(0, 360), 2},
	{"PhotoObjAll", "dec", interval.Closed(-90, 90), 2},
	{"SpecObjAll", "z", interval.Closed(0, 7), 3},
	{"SpecObjAll", "plate", interval.Closed(266, 5141), 0},
	{"Photoz", "zerr", interval.Closed(0, 1), 3},
	{"zooSpec", "p_el", interval.Closed(0, 1), 3},
	{"galSpecInfo", "snmedian", interval.Closed(0, 900), 1},
	{"sppParams", "fehadop", interval.Closed(-5, 1), 2},
	{"AtlasOutline", "span", interval.Closed(0, 100), 1},
	{"emissionLinesPort", "dec", interval.Closed(-90, 90), 2},
}

func noiseQuery(r *rand.Rand) string {
	p := noiseProbes[r.Intn(len(noiseProbes))]
	switch r.Intn(4) {
	case 3:
		// Occasional UNION probes exercise the union mapping end to end.
		q := noiseProbes[r.Intn(len(noiseProbes))]
		v1 := p.win.Lo + r.Float64()*p.win.Width()
		v2 := q.win.Lo + r.Float64()*q.win.Width()
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s < %s UNION SELECT %s FROM %s WHERE %s > %s",
			p.col, p.table, p.col, ffloat(v1, p.prec), q.col, q.table, q.col, ffloat(v2, q.prec))
	case 0:
		v := p.win.Lo + r.Float64()*p.win.Width()
		op := []string{"<", "<=", ">", ">=", "="}[r.Intn(5)]
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s %s %s", p.col, p.table, p.col, op, ffloat(v, p.prec))
	case 1:
		lo, hi := subRange(r, p.win, 0.01, 0.9)
		return fmt.Sprintf("SELECT * FROM %s WHERE %s BETWEEN %s AND %s", p.table, p.col, ffloat(lo, p.prec), ffloat(hi, p.prec))
	default:
		return fmt.Sprintf("SELECT TOP 10 * FROM %s", p.table)
	}
}

// errorStatements are rejected by the parser for the reasons of Section
// 6.1: syntax errors, SkyServer UDFs, DDL/DECLARE issued by administrators.
func errorStatement(r *rand.Rand) (sql, kind string) {
	switch r.Intn(5) {
	case 0:
		return "SELECT * FROM WHERE ra > 100", "error"
	case 1:
		return "SELEC objid FRM PhotoObjAll", "error"
	case 2:
		return fmt.Sprintf("SELECT * FROM dbo.fGetNearbyObjEq(%s, %s, 1.0)",
			ffloat(r.Float64()*360, 2), ffloat(r.Float64()*180-90, 2)), "error"
	case 3:
		return "CREATE TABLE mydb.results (objid bigint, ra float)", "admin"
	default:
		return "DECLARE @ra float SET @ra = 185.0", "admin"
	}
}

func mysqlQuery(r *rand.Rand) string {
	return fmt.Sprintf("SELECT Galaxies.objid FROM Galaxies LIMIT %d", 10+r.Intn(90))
}

// bigPredQuery emits a pathological query with more than 35 predicates
// (Section 6.6: 471 such queries in the real log; they bound the CNF
// converter).
func bigPredQuery(r *rand.Rand) string {
	return PathologicalQuery(20 + r.Intn(10))
}

// PathologicalQuery returns a query whose WHERE is a disjunction of n
// two-predicate conjunctions: its CNF has 2^n clauses, the exponential
// blow-up Section 6.6 bounds with the 35-predicate cap.
func PathologicalQuery(n int) string {
	sql := "SELECT * FROM PhotoObjAll WHERE ra > 0"
	for i := 0; i < n; i++ {
		sql += fmt.Sprintf(" OR (ra > %d AND dec < %d)", i, i)
	}
	return sql
}

// GenerateLog produces the synthetic query log. Counts per template are
// allocated proportionally to the paper's Table-1 cardinalities (with a
// floor so every cluster stays detectable at small scale), the remainder is
// background noise, and the special populations (errors, admin DDL, MySQL
// dialect, >35-predicate monsters) get their configured shares. The order
// is shuffled deterministically.
func GenerateLog(cfg WorkloadConfig) []LogEntry {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	tpls := templates()

	nErr := maxInt(1, int(float64(cfg.Queries)*cfg.ErrorFraction))
	nMySQL := maxInt(1, int(float64(cfg.Queries)*mysqlFraction))
	nBig := maxInt(1, int(float64(cfg.Queries)*bigPredFraction))
	nNoise := int(float64(cfg.Queries) * cfg.NoiseFraction)
	nTemplates := cfg.Queries - nErr - nMySQL - nBig - nNoise
	if nTemplates < len(tpls) {
		nTemplates = len(tpls)
	}

	totalWeight := 0
	for _, t := range tpls {
		totalWeight += t.weight
	}
	floor := maxInt(8, nTemplates/2000)
	counts := make([]int, len(tpls))
	allocated := 0
	for i, t := range tpls {
		c := int(math.Round(float64(nTemplates) * float64(t.weight) / float64(totalWeight)))
		if c < floor {
			c = floor
		}
		counts[i] = c
		allocated += c
	}
	// Absorb over/under-allocation in the largest template.
	counts[0] += nTemplates - allocated
	if counts[0] < floor {
		counts[0] = floor
	}

	var entries []LogEntry
	userPool := 3 * cfg.Queries
	user := func(tpl string) string {
		// A few bots produce a disproportionate share (Singh et al. [23]);
		// they favour the programmatic objid-lookup workload.
		botOdds := 50
		if tpl == "cluster01" {
			botOdds = 5
		}
		if r.Intn(botOdds) == 0 {
			return fmt.Sprintf("bot%02d", r.Intn(3))
		}
		return fmt.Sprintf("u%06d", r.Intn(userPool))
	}
	add := func(sql, tplName string) {
		entries = append(entries, LogEntry{User: user(tplName), SQL: sql, Template: tplName})
	}
	for i, t := range tpls {
		for k := 0; k < counts[i]; k++ {
			variant := r.Float64() < variantFraction
			add(t.gen(r, variant), t.name)
		}
	}
	for k := 0; k < nNoise; k++ {
		add(noiseQuery(r), "noise")
	}
	for k := 0; k < nErr; k++ {
		sql, kind := errorStatement(r)
		add(sql, kind)
	}
	for k := 0; k < nMySQL; k++ {
		add(mysqlQuery(r), "mysql")
	}
	for k := 0; k < nBig; k++ {
		add(bigPredQuery(r), "bigpred")
	}

	// Deterministic shuffle and timestamping (~14 queries/minute overall).
	r.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	for i := range entries {
		entries[i].Seq = i
		entries[i].Time = int64(i) * 4
	}
	// Bots hammer the interface in machine-cadence bursts: rewrite their
	// timestamps to 1-second runs anchored at each bot's first appearance.
	botIdx := make(map[string][]int)
	for i, e := range entries {
		if strings.HasPrefix(e.User, "bot") {
			botIdx[e.User] = append(botIdx[e.User], i)
		}
	}
	for _, idxs := range botIdx {
		base := entries[idxs[0]].Time
		for k, idx := range idxs {
			entries[idx].Time = base + int64(k)
		}
	}
	return entries
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ClassMix apportions a mixed-traffic log across the traffic classes by
// record share. An all-zero mix falls back to the SkyServer Traffic Report's
// rough shape: 70% bot, 25% human, 5% admin.
type ClassMix struct {
	Bot   float64
	Human float64
	Admin float64
}

// ClassOf returns a mixed-log record's ground-truth class from its user
// name: GenerateMixedLog names bots bot##, admins adm## and everyone else
// u###### — the evaluation key the traffic-class tests score the online
// classifier against.
func ClassOf(user string) string {
	switch {
	case strings.HasPrefix(user, "bot"):
		return "bot"
	case strings.HasPrefix(user, "adm"):
		return "admin"
	default:
		return "human"
	}
}

// GenerateMixedLog produces a query log whose per-user behaviour separates
// into the three traffic classes:
//
//   - bots: a handful of bot## users, each locked to one or two statement
//     templates (low fingerprint diversity), hammering at a constant 1–3 s
//     cadence (low gap mean and stddev) in long runs;
//   - humans: many u###### users browsing in bursty sessions — 3–12 mixed
//     template/noise queries with irregular 8–240 s gaps, then a long pause;
//   - admins: a few adm## users issuing DDL / variable-batch / mutation
//     statements.
//
// The interleaved order is deterministic for a given config: entries are
// laid out on per-user logical clocks and stably sorted by time, so the
// same seed always yields byte-identical logs and therefore byte-identical
// classifier behaviour downstream.
func GenerateMixedLog(cfg WorkloadConfig, mix ClassMix) []LogEntry {
	cfg = cfg.withDefaults()
	if mix.Bot <= 0 && mix.Human <= 0 && mix.Admin <= 0 {
		mix = ClassMix{Bot: 0.70, Human: 0.25, Admin: 0.05}
	}
	total := mix.Bot + mix.Human + mix.Admin
	r := rand.New(rand.NewSource(cfg.Seed ^ 0x7ea6f1c))
	tpls := templates()

	nBot := int(float64(cfg.Queries) * mix.Bot / total)
	nAdmin := int(float64(cfg.Queries) * mix.Admin / total)
	nHuman := cfg.Queries - nBot - nAdmin
	entries := make([]LogEntry, 0, cfg.Queries)

	// Bots: each owns a contiguous machine-cadence run from its own start
	// offset. Template lock-in keeps the per-user fingerprint set at 1–2.
	if nBot > 0 {
		bots := maxInt(2, nBot/2500)
		if bots > 40 {
			bots = 40
		}
		per := nBot / bots
		for b := 0; b < bots; b++ {
			count := per
			if b == 0 {
				count += nBot - per*bots
			}
			user := fmt.Sprintf("bot%02d", b)
			gap := int64(1 + b%3)
			t := int64(b * 11)
			primary := tpls[b%len(tpls)]
			secondary := tpls[(b*7+3)%len(tpls)]
			dual := b%2 == 0
			for k := 0; k < count; k++ {
				tpl := primary
				if dual && k%5 == 4 {
					tpl = secondary
				}
				entries = append(entries, LogEntry{
					User: user, Time: t, SQL: tpl.gen(r, false), Template: tpl.name,
				})
				t += gap
			}
		}
	}

	// Humans: bursty sessions over a shared horizon so they interleave with
	// the bot runs instead of trailing them.
	horizon := int64(maxInt(nHuman, nBot) * 4)
	if horizon < 1 {
		horizon = 1
	}
	emitted := 0
	for u := 0; emitted < nHuman; u++ {
		user := fmt.Sprintf("u%06d", u)
		t := int64(r.Intn(int(horizon)))
		sessions := 1 + r.Intn(3)
		for s := 0; s < sessions && emitted < nHuman; s++ {
			qs := 3 + r.Intn(10)
			for q := 0; q < qs && emitted < nHuman; q++ {
				var sql string
				var label string
				switch {
				case r.Float64() < cfg.ErrorFraction:
					sql, label = "SELEC objid FRM PhotoObjAll", "error"
				case r.Float64() < cfg.NoiseFraction:
					sql, label = noiseQuery(r), "noise"
				default:
					tpl := tpls[r.Intn(len(tpls))]
					sql, label = tpl.gen(r, r.Float64() < variantFraction), tpl.name
				}
				entries = append(entries, LogEntry{User: user, Time: t, SQL: sql, Template: label})
				t += int64(8 + r.Intn(233))
				emitted++
			}
			t += int64(3600 + r.Intn(7200))
		}
	}

	// Admins: a few operators running DDL, batch variables and mutations.
	if nAdmin > 0 {
		admins := maxInt(1, nAdmin/200)
		if admins > 10 {
			admins = 10
		}
		for k := 0; k < nAdmin; k++ {
			user := fmt.Sprintf("adm%02d", k%admins)
			var sql string
			switch r.Intn(5) {
			case 0:
				sql = fmt.Sprintf("CREATE TABLE mydb.run%d (objid bigint, ra float)", r.Intn(1000))
			case 1:
				sql = fmt.Sprintf("DECLARE @ra float SET @ra = %s", ffloat(r.Float64()*360, 2))
			case 2:
				sql = fmt.Sprintf("INSERT INTO mydb.targets SELECT objid FROM PhotoObjAll WHERE ra > %s", ffloat(r.Float64()*360, 2))
			case 3:
				sql = fmt.Sprintf("UPDATE mydb.targets SET done = %d WHERE objid = %d", r.Intn(2), r.Intn(1<<20))
			default:
				sql = fmt.Sprintf("DROP TABLE mydb.run%d", r.Intn(1000))
			}
			entries = append(entries, LogEntry{
				User: user, Time: int64(r.Intn(int(horizon))), SQL: sql, Template: "admin",
			})
		}
	}

	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time < entries[j].Time })
	for i := range entries {
		entries[i].Seq = i
	}
	return entries
}

// Countries lists the query-origin countries simulated by the generator;
// the paper's log spans users "from 127 countries".
var countryCodes = []string{
	"US", "DE", "GB", "JP", "CN", "FR", "IT", "ES", "CA", "AU", "IN", "BR",
	"RU", "NL", "SE", "CH", "PL", "KR", "MX", "AR", "CL", "ZA", "IL", "TR",
	"AT", "BE", "CZ", "DK", "FI", "GR", "HU", "IE", "NO", "PT", "RO", "TW",
}

// CountryOf deterministically assigns a user to a country with a skewed
// (Zipf-like) distribution — most traffic from a handful of countries, a
// long tail behind.
func CountryOf(user string) string {
	h := fnv1a(user)
	r := int(h % 1000)
	switch {
	case r < 300:
		return countryCodes[0]
	case r < 450:
		return countryCodes[1]
	case r < 550:
		return countryCodes[2]
	default:
		return countryCodes[3+int(h>>10)%(len(countryCodes)-3)]
	}
}

func fnv1a(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
