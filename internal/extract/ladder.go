package extract

import (
	"errors"
	"time"

	"repro/internal/sqlparser"
)

// Resolve is the extraction ladder (DESIGN.md §9), the one path by which
// ingest, POST /query and the shard router turn a statement into its
// extraction outcome. It takes the first rung that applies:
//
//  1. the exact-statement memo: a text extracted before replays its outcome,
//     observed through ex's registry exactly as a cold extraction would be
//     (ex may not be the extractor that stored it);
//  2. the fingerprint's cached template, rebound to the text's literals;
//  3. the full parse → extract path, whose outcome — failures included, as
//     they are as value-independent as areas — becomes the fingerprint's
//     template on a template miss.
//
// A template rung refused by an Uncacheable shape or a per-record guard falls
// through to rung 3 without re-storing. Any literal the lexer accepted but
// strconv.ParseFloat rejects (e.g. "1e999") makes parse success itself
// value-dependent, so such a text skips rung 2 and stores no template, though
// its outcome is still memoised.
//
// stmt is the text's memo entry (TemplateCache.Stmt). A nil cache is the
// uncached path, which ignores stmt: every call parses and extracts in full.
// parse is the parse time (on rungs 1 and 2, the lookup time that stands in
// for it), tm the extraction stage timings, and hit reports that rung 1 or 2
// served the text.
func (c *TemplateCache) Resolve(ex *Extractor, sql string, stmt *Stmt) (o *Outcome, parse time.Duration, tm Timings, hit bool) {
	if c == nil {
		o, parse, tm = ex.parseExtract(sql, nil, 0)
		return o, parse, tm, false
	}
	t0 := time.Now()
	if o = stmt.Outcome(); o != nil {
		ex.Observe(o.Area)
		return o, time.Since(t0), Timings{}, true
	}
	usable := stmt.lexed && !anyBadNum(stmt.lits)
	var t *AreaTemplate
	if usable {
		t, _ = c.Get(stmt.fp)
	}
	if t != nil {
		parse = time.Since(t0)
		o, tm = t.outcome(ex, stmt.lits)
		hit = o != nil
	}
	if o == nil {
		store := c
		if t != nil || !usable {
			store = nil
		}
		o, parse, tm = ex.parseExtract(sql, store, stmt.fp)
	}
	stmt.SetOutcome(o)
	return o, parse, tm, hit
}

func anyBadNum(lits []sqlparser.Literal) bool {
	for _, l := range lits {
		if l.BadNum {
			return true
		}
	}
	return false
}

// outcome derives a record's outcome from its class's template. It returns
// nil when the record must take the full path instead: the shape is
// Uncacheable or a per-record guard failed.
func (t *AreaTemplate) outcome(ex *Extractor, lits []sqlparser.Literal) (*Outcome, Timings) {
	switch {
	case t.Uncacheable:
		return nil, Timings{}
	case t.ParseFailCat != "":
		return &Outcome{ParseFailCat: t.ParseFailCat}, Timings{}
	case t.NonSelect:
		return &Outcome{ParseFailCat: "non-select"}, Timings{}
	case t.ExtractErr != nil:
		return &Outcome{ExtractErr: t.ExtractErr}, Timings{}
	}
	area, tm, ok := t.Rebind(ex, lits)
	if !ok {
		return nil, tm
	}
	return &Outcome{Area: area, Key: area.Key()}, tm
}

// parseExtract is the full parse → extract path; it returns the outcome, the
// parse duration and the extraction stage timings. When store is non-nil the
// outcome is stored there as fp's template.
func (ex *Extractor) parseExtract(sql string, store *TemplateCache, fp uint64) (*Outcome, time.Duration, Timings) {
	t0 := time.Now()
	stmt, err := sqlparser.Parse(sql)
	parse := time.Since(t0)
	if err != nil {
		cat := classifyParseError(err)
		store.put(fp, &AreaTemplate{ParseFailCat: cat})
		return &Outcome{ParseFailCat: cat}, parse, Timings{}
	}
	sel, ok := stmt.(*sqlparser.SelectStatement)
	if !ok {
		store.put(fp, &AreaTemplate{NonSelect: true})
		return &Outcome{ParseFailCat: "non-select"}, parse, Timings{}
	}
	var (
		area *AccessArea
		tm   Timings
	)
	if store != nil {
		var tmpl *AreaTemplate
		area, tm, tmpl, err = ex.extractTemplate(sel)
		store.put(fp, tmpl)
	} else {
		area, tm, err = ex.ExtractWithTimings(sel)
	}
	if err != nil {
		return &Outcome{ExtractErr: err}, parse, tm
	}
	return &Outcome{Area: area, Key: area.Key()}, parse, tm
}

// classifyParseError names a parse failure's category ("syntax", "udf",
// "non-select", "unsupported", "lex" or "other").
func classifyParseError(err error) string {
	var pe *sqlparser.ParseError
	if errors.As(err, &pe) {
		return pe.Category.String()
	}
	var le *sqlparser.LexError
	if errors.As(err, &le) {
		return "lex"
	}
	return "other"
}
