package qlog

import (
	"context"
	"errors"
	"time"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sqlparser"
)

// observeParse records one parse-stage duration in both the run's StageTime
// (the §6.6 report) and the process-wide stage histogram.
func observeParse(st *Stats, d time.Duration) {
	st.Parse.observe(d)
	parseObs.Observe(d)
}

// AreaRecord pairs a log record with its extracted access area.
type AreaRecord struct {
	Record Record
	Area   *extract.AccessArea
	// Key is Area.Key(), computed once per extraction (and memoised with
	// the area per exact text), so the miners' deduplication does not
	// rebuild it per record.
	Key string
}

// StageTime aggregates min/max/total durations for one pipeline stage,
// mirroring the per-stage ranges reported in Section 6.6.
type StageTime struct {
	Min, Max, Total time.Duration
	Count           int
}

func (s *StageTime) observe(d time.Duration) {
	if s.Count == 0 || d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Total += d
	s.Count++
}

// Mean returns the average stage duration.
func (s *StageTime) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Merge folds another StageTime into this one. It is not safe for
// concurrent use: callers merging timings from concurrently-finishing
// pipeline runs (e.g. two serving epochs) must hold their own lock.
func (s *StageTime) Merge(o StageTime) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Total += o.Total
	s.Count += o.Count
}

// Stats summarises a pipeline run: the extraction-coverage numbers of
// Section 6.1 plus the stage timings of Section 6.6.
type Stats struct {
	Total     int
	Parsed    int // statements the parser accepted as SELECT
	Extracted int // access areas produced
	// ParseFailures counts rejected statements by category ("syntax",
	// "udf", "non-select", "unsupported", "lex").
	ParseFailures map[string]int
	// ExtractFailures counts parsed statements the extractor rejected
	// (self-joins etc.).
	ExtractFailures int
	Truncated       int // hit the 35-predicate CNF cap
	Approximate     int // inexact mappings
	EmptyAreas      int // provably empty (contradictory) areas

	// FullParses counts records that took the slow path (full parse and
	// extraction); CacheHits counts records served from the template cache
	// or the exact-statement memo.
	// Both are scheduling telemetry: when several workers miss the same
	// fingerprint concurrently each performs a full parse, so the split
	// between the two varies run to run. Every semantic counter above is
	// deterministic regardless.
	FullParses int
	CacheHits  int

	Parse       StageTime
	Extract     StageTime
	CNF         StageTime
	Consolidate StageTime

	Elapsed time.Duration
}

// Coverage returns the extraction coverage fraction (the paper reports
// 12,375,426 / 12,442,989 = 99.46%).
func (s *Stats) Coverage() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Extracted) / float64(s.Total)
}

// Merge folds another run's statistics into this one: counters add, failure
// categories add key-wise, stage timings merge range-wise, and Elapsed
// accumulates (two sequential batches took the sum of their wall clocks;
// for overlapping runs the sum is total busy time, not wall time). Merge
// is NOT safe for concurrent use — a server merging per-batch stats from
// concurrently-finishing pipeline runs must serialise calls with its own
// lock (see internal/serve).
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	s.Total += o.Total
	s.Parsed += o.Parsed
	s.Extracted += o.Extracted
	s.ExtractFailures += o.ExtractFailures
	s.Truncated += o.Truncated
	s.Approximate += o.Approximate
	s.EmptyAreas += o.EmptyAreas
	s.FullParses += o.FullParses
	s.CacheHits += o.CacheHits
	if len(o.ParseFailures) > 0 && s.ParseFailures == nil {
		s.ParseFailures = make(map[string]int)
	}
	for k, v := range o.ParseFailures {
		s.ParseFailures[k] += v
	}
	s.Parse.Merge(o.Parse)
	s.Extract.Merge(o.Extract)
	s.CNF.Merge(o.CNF)
	s.Consolidate.Merge(o.Consolidate)
	s.Elapsed += o.Elapsed
}

// RecordSource yields successive log records; ok reports whether rec is
// valid, and false ends the stream. Sources are pulled from a single
// goroutine, so they need not be concurrency-safe.
type RecordSource func() (rec Record, ok bool)

// SliceSource adapts an in-memory record slice to a RecordSource.
func SliceSource(recs []Record) RecordSource {
	i := 0
	return func() (Record, bool) {
		if i >= len(recs) {
			return Record{}, false
		}
		r := recs[i]
		i++
		return r, true
	}
}

// Pipeline extracts access areas from log records.
type Pipeline struct {
	Extractor *extract.Extractor
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// NoCache disables the template cache: every record takes the full
	// parse → extract → CNF → consolidate path. Required when per-statement
	// stage timings must reflect real work (the §6.6 efficiency experiment).
	NoCache bool
	// Cache, when non-nil, is used (and populated) instead of a fresh
	// per-run cache, letting templates persist across runs of the same log
	// family. Ignored under NoCache.
	Cache *extract.TemplateCache
}

// streamChunk is how many records RunStream pulls before extracting and
// emitting them: a stream's record residency, whatever its length.
const streamChunk = 256

// Run processes all records, returning the successful extractions in input
// order and the aggregate statistics.
func (p *Pipeline) Run(recs []Record) ([]AreaRecord, *Stats) {
	start := time.Now()
	out := make([]AreaRecord, 0, len(recs))
	st := newStats()
	p.batch(recs, p.cache(), st, func(ar AreaRecord) { out = append(out, ar) })
	st.Elapsed = time.Since(start)
	return out, st
}

// RunStream processes a record stream with bounded memory: it pulls at most
// streamChunk records, extracts them as one batch, emits them and repeats,
// so at most streamChunk records are resident at once, independent of
// stream length (plus one memo entry and cached template per distinct
// statement). emit is called for every successful extraction, in input
// order, from the calling goroutine; it may be nil when only the statistics
// matter.
//
// ctx is checked before every pull. Cancelling it stops the pulls; the
// records already pulled are extracted and emitted, and the returned Stats
// cover exactly those. Callers distinguish a drained source from a
// cancelled one via ctx.Err().
func (p *Pipeline) RunStream(ctx context.Context, src RecordSource, emit func(AreaRecord)) *Stats {
	start := time.Now()
	cache := p.cache()
	st := newStats()
	pull := func() (Record, bool) {
		if ctx.Err() != nil {
			return Record{}, false
		}
		return src()
	}
	chunk := make([]Record, 0, streamChunk)
	for more := true; more; {
		chunk = chunk[:0]
		var rec Record
		for len(chunk) < streamChunk {
			if rec, more = pull(); !more {
				break
			}
			chunk = append(chunk, rec)
		}
		p.batch(chunk, cache, st, emit)
	}
	st.Elapsed = time.Since(start)
	return st
}

// cache is the template cache one run extracts through: none under
// NoCache, else the configured cache or a fresh per-run one.
func (p *Pipeline) cache() *extract.TemplateCache {
	if p.NoCache {
		return nil
	}
	if p.Cache != nil {
		return p.Cache
	}
	return &extract.TemplateCache{}
}

// result is one record's extraction, written into the record's own slot by
// whichever worker processed it.
type result struct {
	o     *extract.Outcome
	parse time.Duration
	tm    extract.Timings
	hit   bool // served by the memo or a template rebind, not a full parse
}

// batch extracts recs in parallel, each into its own result slot, then
// accounts the slots into st and emits the extractions in input order on
// the calling goroutine, so workers never share a Stats.
func (p *Pipeline) batch(recs []Record, cache *extract.TemplateCache, st *Stats, emit func(AreaRecord)) {
	res := make([]result, len(recs))
	par.For(len(recs), par.Workers(p.Workers), func(i int) {
		res[i] = p.processOne(recs[i], cache)
	})
	for i := range res {
		if ar := p.account(recs[i], &res[i], st); ar != nil && emit != nil {
			emit(*ar)
		}
	}
}

func newStats() *Stats {
	return &Stats{ParseFailures: make(map[string]int)}
}

// processOne classifies and extracts one record. With a cache, the record's
// exact text is looked up in the memo first (unless an upstream stage
// attached its entry already): a text extracted before replays its outcome
// without fingerprinting, template lookup, rebind, CNF or consolidation.
// Otherwise the entry's fingerprint is tried against the template cache. Any
// literal the lexer accepted but strconv.ParseFloat rejects (e.g. "1e999")
// makes parse success itself value-dependent, so such records bypass the
// template cache entirely — no lookup, no store — though their exact text is
// still memoised.
func (p *Pipeline) processOne(rec Record, cache *extract.TemplateCache) result {
	if cache == nil {
		o, parse, tm := p.slowPath(rec.SQL, nil, 0)
		return result{o: o, parse: parse, tm: tm}
	}
	t0 := time.Now()
	stmt := rec.Stmt
	if stmt == nil {
		stmt = cache.Stmt(rec.SQL)
	}
	if o := stmt.Outcome(); o != nil {
		// The registry must grow through THIS pipeline's extractor exactly
		// as a cold extraction would (it may not be the one that stored o).
		p.Extractor.Observe(o.Area)
		return result{o: o, parse: time.Since(t0), hit: true}
	}
	var r result
	fp, lits, lexed := stmt.Fingerprint()
	usable := lexed && !anyBadNum(lits)
	var t *extract.AreaTemplate
	if usable {
		t, _ = cache.Get(fp)
	}
	if t != nil {
		r.parse = time.Since(t0)
		r.o, r.tm = p.applyTemplate(t, lits)
		r.hit = r.o != nil
	}
	if r.o == nil {
		// A template miss stores the class's template; an uncacheable shape
		// or a failed per-record guard takes the slow path without
		// re-storing, and so does a record the template cache must bypass.
		store := cache
		if t != nil || !usable {
			store, fp = nil, 0
		}
		r.o, r.parse, r.tm = p.slowPath(rec.SQL, store, fp)
	}
	stmt.SetOutcome(r.o)
	return r
}

func anyBadNum(lits []sqlparser.Literal) bool {
	for _, l := range lits {
		if l.BadNum {
			return true
		}
	}
	return false
}

// applyTemplate derives a record's outcome from its class's cached template.
// It returns nil when the record must take the slow path instead: the shape
// is Uncacheable or a per-record guard failed.
func (p *Pipeline) applyTemplate(t *extract.AreaTemplate, lits []sqlparser.Literal) (*extract.Outcome, extract.Timings) {
	switch {
	case t.Uncacheable:
		return nil, extract.Timings{}
	case t.ParseFailCat != "":
		return &extract.Outcome{ParseFailCat: t.ParseFailCat}, extract.Timings{}
	case t.NonSelect:
		return &extract.Outcome{ParseFailCat: "non-select"}, extract.Timings{}
	case t.ExtractErr != nil:
		return &extract.Outcome{ExtractErr: t.ExtractErr}, extract.Timings{}
	}
	area, tm, ok := t.Rebind(p.Extractor, lits)
	if !ok {
		return nil, tm
	}
	return &extract.Outcome{Area: area, Key: area.Key()}, tm
}

// slowPath is the full parse → extract path; it returns the outcome, the
// parse duration and the extraction stage timings. When cache is non-nil the
// outcome — including failures, which are as value-independent as successes
// — is stored under fp for the rest of the fingerprint class.
func (p *Pipeline) slowPath(sql string, cache *extract.TemplateCache, fp uint64) (*extract.Outcome, time.Duration, extract.Timings) {
	t0 := time.Now()
	stmt, err := sqlparser.Parse(sql)
	parse := time.Since(t0)
	// Slow-path extractions carry a fingerprint only when they seed the
	// template cache; those are the ones worth surfacing — a class that
	// keeps missing the cache shows up here by fingerprint.
	if fp != 0 {
		defer func() { obs.DefaultSlowLog.Record("ingest-extract", fp, time.Since(t0)) }()
	}
	if err != nil {
		cat := classifyParseError(err)
		if cache != nil {
			cache.Put(fp, &extract.AreaTemplate{ParseFailCat: cat})
		}
		return &extract.Outcome{ParseFailCat: cat}, parse, extract.Timings{}
	}
	sel, ok := stmt.(*sqlparser.SelectStatement)
	if !ok {
		if cache != nil {
			cache.Put(fp, &extract.AreaTemplate{NonSelect: true})
		}
		return &extract.Outcome{ParseFailCat: "non-select"}, parse, extract.Timings{}
	}
	var (
		area *extract.AccessArea
		tm   extract.Timings
	)
	if cache != nil {
		var tmpl *extract.AreaTemplate
		area, tm, tmpl, err = p.Extractor.ExtractTemplate(sel)
		cache.Put(fp, tmpl)
	} else {
		area, tm, err = p.Extractor.ExtractWithTimings(sel)
	}
	if err != nil {
		return &extract.Outcome{ExtractErr: err}, parse, tm
	}
	return &extract.Outcome{Area: area, Key: area.Key()}, parse, tm
}

// account records one record's result in st — the bookkeeping shared by
// the slow path, template rebinds and memo hits, so the semantic counters
// cannot depend on which path served the record. Every record observes the
// Parse stage (on cached paths the lookup time stands in for it); the three
// extraction stages are observed for exactly the extracted records, so a
// failed extraction never leaves the stage Counts disagreeing in the §6.6
// report.
func (p *Pipeline) account(rec Record, r *result, st *Stats) *AreaRecord {
	st.Total++
	recordsTotal.Inc()
	if r.hit {
		st.CacheHits++
		cacheHitsTotal.Inc()
	} else {
		st.FullParses++
		fullParsesTotal.Inc()
	}
	observeParse(st, r.parse)
	o, tm := r.o, r.tm
	if o.ParseFailCat != "" {
		st.ParseFailures[o.ParseFailCat]++
		return nil
	}
	st.Parsed++
	if o.ExtractErr != nil {
		st.ExtractFailures++
		return nil
	}
	st.Extract.observe(tm.Extract)
	st.CNF.observe(tm.CNF)
	st.Consolidate.observe(tm.Consolidate)
	extractObs.Observe(tm.Extract)
	cnfObs.Observe(tm.CNF)
	consolidateObs.Observe(tm.Consolidate)
	st.Extracted++
	area := o.Area
	if area.Truncated {
		st.Truncated++
	}
	if !area.Exact {
		st.Approximate++
	}
	if area.IsEmpty() {
		st.EmptyAreas++
	}
	return &AreaRecord{Record: rec, Area: area, Key: o.Key}
}

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
