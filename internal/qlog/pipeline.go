package qlog

import (
	"context"
	"time"

	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/par"
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

// processOne extracts one record through the cache's extraction ladder
// (extract.TemplateCache.Resolve), reusing the memo entry an upstream stage
// attached. A full parse through a cache lands in the slow log under the
// "ingest-extract" stage by fingerprint, so a class that keeps missing the
// cache shows up there.
func (p *Pipeline) processOne(rec Record, cache *extract.TemplateCache) result {
	stmt := rec.Stmt
	if stmt == nil && cache != nil {
		stmt = cache.Stmt(rec.SQL)
	}
	t0 := time.Now()
	var r result
	r.o, r.parse, r.tm, r.hit = cache.Resolve(p.Extractor, rec.SQL, stmt)
	if cache != nil && !r.hit {
		fp, _, _ := stmt.Fingerprint()
		obs.DefaultSlowLog.Record("ingest-extract", fp, time.Since(t0))
	}
	return r
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
