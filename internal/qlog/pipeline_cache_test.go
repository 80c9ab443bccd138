package qlog

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/schema"
	"repro/internal/skyserver"
)

func workloadRecords(t *testing.T, n int) []Record {
	t.Helper()
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: n, Seed: 42})
	recs := make([]Record, len(entries))
	for i, e := range entries {
		recs[i] = Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}

// requireSameOutput asserts two pipeline passes produced identical area
// records in identical order.
func requireSameOutput(t *testing.T, label string, a, b []AreaRecord) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d area records", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Record.Seq != b[i].Record.Seq {
			t.Fatalf("%s: order differs at %d: seq %d vs %d", label, i, a[i].Record.Seq, b[i].Record.Seq)
		}
		x, y := a[i].Area, b[i].Area
		if x.Key() != y.Key() || x.Exact != y.Exact || x.Truncated != y.Truncated {
			t.Fatalf("%s: area differs at seq %d:\n  %q exact=%v trunc=%v\n  %q exact=%v trunc=%v",
				label, a[i].Record.Seq, x.Key(), x.Exact, x.Truncated, y.Key(), y.Exact, y.Truncated)
		}
	}
}

// requireSameSemantics asserts the deterministic Stats counters agree
// (FullParses/CacheHits are scheduling telemetry and excluded).
func requireSameSemantics(t *testing.T, label string, a, b *Stats) {
	t.Helper()
	if a.Total != b.Total || a.Parsed != b.Parsed || a.Extracted != b.Extracted ||
		a.ExtractFailures != b.ExtractFailures || a.Truncated != b.Truncated ||
		a.Approximate != b.Approximate || a.EmptyAreas != b.EmptyAreas {
		t.Fatalf("%s: semantic stats differ:\n%+v\n%+v", label, a, b)
	}
	if len(a.ParseFailures) != len(b.ParseFailures) {
		t.Fatalf("%s: parse failure categories differ: %v vs %v", label, a.ParseFailures, b.ParseFailures)
	}
	for k, v := range a.ParseFailures {
		if b.ParseFailures[k] != v {
			t.Fatalf("%s: parse failures differ for %q: %d vs %d", label, k, v, b.ParseFailures[k])
		}
	}
}

// The template cache must be invisible in the output: same areas, same
// semantic counters, far fewer full parses.
func TestPipelineCachedMatchesUncached(t *testing.T) {
	recs := workloadRecords(t, 3000)
	sch := skyserver.Schema()

	uncached := &Pipeline{Extractor: extract.New(sch), NoCache: true}
	uAreas, uStats := uncached.Run(recs)

	cached := &Pipeline{Extractor: extract.New(sch)}
	cAreas, cStats := cached.Run(recs)

	requireSameOutput(t, "cached vs uncached", uAreas, cAreas)
	requireSameSemantics(t, "cached vs uncached", uStats, cStats)

	if uStats.FullParses != uStats.Total {
		t.Errorf("uncached full parses = %d, want %d", uStats.FullParses, uStats.Total)
	}
	if cStats.CacheHits == 0 {
		t.Error("cached run produced no cache hits")
	}
	if cStats.FullParses+cStats.CacheHits != cStats.Total {
		t.Errorf("full parses (%d) + hits (%d) != total (%d)",
			cStats.FullParses, cStats.CacheHits, cStats.Total)
	}
	// The acceptance bar: this 3k log needs 6.24x fewer full parses with the
	// cache (481 of 3000 when the bar was set); 5.3x leaves a 15% margin for
	// concurrent misses on one fingerprint, which each parse.
	ratio := float64(cStats.Total) / float64(cStats.FullParses)
	t.Logf("%d full parses of %d records (%.2fx fewer)", cStats.FullParses, cStats.Total, ratio)
	if ratio < 5.3 {
		t.Errorf("cache ineffective: %d full parses of %d records (%.2fx, want >= 5.3x)",
			cStats.FullParses, cStats.Total, ratio)
	}
	// Parse stage observations must still cover every record (fingerprint
	// time stands in for parse time on hits), keeping §6.6 counts coherent.
	if cStats.Parse.Count != cStats.Total {
		t.Errorf("Parse.Count = %d, want %d", cStats.Parse.Count, cStats.Total)
	}
}

// RunStream must equal Run record for record, in input order.
func TestRunStreamMatchesRun(t *testing.T) {
	recs := workloadRecords(t, 2000)
	sch := skyserver.Schema()

	p1 := &Pipeline{Extractor: extract.New(sch)}
	areas, stats := p1.Run(recs)

	p2 := &Pipeline{Extractor: extract.New(sch), Workers: 4}
	var streamed []AreaRecord
	sStats := p2.RunStream(context.Background(), SliceSource(recs), func(ar AreaRecord) {
		streamed = append(streamed, ar)
	})

	requireSameOutput(t, "stream vs run", areas, streamed)
	requireSameSemantics(t, "stream vs run", stats, sStats)
}

// RunStream holds at most one chunk of records: the source is never pulled
// more than streamChunk records ahead of emit, whatever the stream length,
// which is what makes RunStream O(streamChunk + cache) memory.
func TestRunStreamBoundedResidency(t *testing.T) {
	recs := workloadRecords(t, 3000)
	for i := range recs {
		recs[i].Seq = i + 1 // a record's Seq is its pull count
	}
	p := &Pipeline{Extractor: extract.New(skyserver.Schema()), Workers: 2}
	pulled, ahead := 0, 0
	src := func() (Record, bool) {
		if pulled == len(recs) {
			return Record{}, false
		}
		pulled++
		return recs[pulled-1], true
	}
	st := p.RunStream(context.Background(), src, func(ar AreaRecord) {
		ahead = max(ahead, pulled-ar.Record.Seq+1)
	})
	if st.Total != len(recs) {
		t.Fatalf("total = %d, want %d", st.Total, len(recs))
	}
	if ahead > streamChunk {
		t.Errorf("source pulled %d records ahead of emit, bound is %d", ahead, streamChunk)
	}
	if ahead < streamChunk/2 {
		t.Errorf("source ran at most %d records ahead of emit: chunking not exercised", ahead)
	}
}

// An unseeded registry filled by several workers ends the same whatever
// order they observe in: access hulls and sets are order-free, and an
// observation never sets content(a).
func TestUnseededRegistrySameAcrossRuns(t *testing.T) {
	recs := workloadRecords(t, 3000)
	sch := skyserver.Schema()
	run := func() *schema.Stats {
		reg := schema.NewStats()
		(&Pipeline{Extractor: &extract.Extractor{Schema: sch, Stats: reg}, Workers: 4, NoCache: true}).Run(recs)
		return reg
	}
	requireSameRegistry(t, "two workers-4 runs", run(), run(), false)
}

// A shared cache carries templates across runs: the second run over the same
// log family needs almost no full parses.
func TestPipelineSharedCache(t *testing.T) {
	recs := workloadRecords(t, 1000)
	sch := skyserver.Schema()
	cache := &extract.TemplateCache{}

	p1 := &Pipeline{Extractor: extract.New(sch), Cache: cache}
	_, st1 := p1.Run(recs)
	p2 := &Pipeline{Extractor: extract.New(sch), Cache: cache}
	_, st2 := p2.Run(recs)

	if st2.FullParses >= st1.FullParses {
		t.Errorf("warm cache did not reduce full parses: %d then %d", st1.FullParses, st2.FullParses)
	}
	if cache.Len() == 0 || cache.Hits() == 0 {
		t.Errorf("cache telemetry empty: len=%d hits=%d", cache.Len(), cache.Hits())
	}
}

// Streaming readers must agree with the slice readers and preserve their
// error reporting.
func TestStreamingReaders(t *testing.T) {
	recs := []Record{
		{Seq: 0, Time: 10, User: "alice", SQL: "SELECT * FROM T WHERE u > 1"},
		{Seq: 1, Time: 20, User: "bob", SQL: `SELECT * FROM S WHERE c = 'x,y'`},
		{Seq: 2, Time: 30, User: "eve", SQL: "SELECT *\nFROM T"},
	}
	var csvBuf, jsonlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonlBuf, recs); err != nil {
		t.Fatal(err)
	}

	var got []Record
	if err := ReadCSVStream(context.Background(), bytes.NewReader(csvBuf.Bytes()), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || got[2].SQL != recs[2].SQL || got[1].User != "bob" {
		t.Errorf("csv stream = %+v", got)
	}

	got = nil
	if err := ReadJSONLStream(context.Background(), bytes.NewReader(jsonlBuf.Bytes()), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) || got[2].SQL != recs[2].SQL {
		t.Errorf("jsonl stream = %+v", got)
	}

	// Error formats survive the streaming rewrite.
	err := ReadCSVStream(context.Background(), strings.NewReader("seq,time,user,sql\nx,0,u,SELECT 1\n"), func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "bad seq") {
		t.Errorf("csv bad-seq error = %v", err)
	}

	// Callback errors abort the stream.
	calls := 0
	sentinel := ReadCSVStream(context.Background(), bytes.NewReader(csvBuf.Bytes()), func(Record) error {
		calls++
		return errStop
	})
	if sentinel == nil || calls != 1 {
		t.Errorf("callback error not propagated: err=%v calls=%d", sentinel, calls)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

// Skeleton regression (the bug this PR fixes): keyword case must not split
// templates, constants of every kind become placeholders, identifiers fold
// to lower case, and unlexable statements fall back to whitespace-normalised
// verbatim text.
func TestSkeletonNormalisation(t *testing.T) {
	a := Skeleton("select * from T where u > 1 and name like 'x%'")
	b := Skeleton("SELECT  *  FROM T\nWHERE u > 99 AND name LIKE 'zzz%'")
	if a != b {
		t.Errorf("skeletons differ:\n  %q\n  %q", a, b)
	}
	if want := "SELECT * FROM t WHERE u > ? AND name LIKE '?'"; a != want {
		t.Errorf("skeleton = %q, want %q", a, want)
	}
	if got := Skeleton("SELECT * FROM T WHERE u > @cap"); !strings.Contains(got, "@?") {
		t.Errorf("param placeholder missing: %q", got)
	}
	// Unlexable: verbatim with collapsed whitespace.
	if got := Skeleton("BOGUS   'unterminated"); got != "BOGUS 'unterminated" {
		t.Errorf("fallback skeleton = %q", got)
	}
}
