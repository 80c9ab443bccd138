package qlog

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/skyserver"
)

func TestCSVRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 0, Time: 10, User: "alice", SQL: "SELECT * FROM T WHERE u > 1"},
		{Seq: 1, Time: 20, User: "bob", SQL: `SELECT * FROM S WHERE c = 'x,y' AND d = 'q"z'`},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].SQL != recs[1].SQL || got[1].User != "bob" {
		t.Errorf("got = %+v", got)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{Seq: 0, Time: 10, User: "alice", SQL: "SELECT * FROM T\nWHERE u > 1"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SQL != recs[0].SQL {
		t.Errorf("got = %+v", got)
	}
}

// WriteJSONL writes '<', '>' and '&' as themselves: HTML escaping would grow
// each into a six-byte \u00XX escape.
func TestJSONLNoHTMLEscape(t *testing.T) {
	recs := []Record{
		{Seq: 3, Time: 30, User: "carol", SQL: "SELECT * FROM T WHERE a < 1 AND b > 2 AND c = '&'", Class: "human"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if line := buf.String(); strings.Contains(line, `\u00`) || !strings.Contains(line, "a < 1 AND b > 2 AND c = '&'") {
		t.Errorf("encoded line escapes its statement: %s", line)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != recs[0] {
		t.Errorf("got = %+v, want %+v", got, recs)
	}
}

func TestReadCSVBadRow(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("seq,time,user,sql\nx,0,u,SELECT 1\n"))
	if err == nil {
		t.Error("expected error for bad seq")
	}
}

func pipelineOverLog(t *testing.T, n int) ([]AreaRecord, *Stats) {
	t.Helper()
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: n, Seed: 42})
	recs := make([]Record, len(entries))
	for i, e := range entries {
		recs[i] = Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	p := &Pipeline{Extractor: extract.New(skyserver.Schema())}
	return p.Run(recs)
}

func TestPipelineCoverage(t *testing.T) {
	areas, stats := pipelineOverLog(t, 3000)
	if stats.Total != 3000 {
		t.Fatalf("total = %d", stats.Total)
	}
	// Section 6.1: ~99.4% of the log extracts; our synthetic error fraction
	// is ~0.54% plus a handful of admin statements.
	cov := stats.Coverage()
	if cov < 0.985 || cov >= 1.0 {
		t.Errorf("coverage = %v, want ~0.99", cov)
	}
	if len(areas) != stats.Extracted {
		t.Errorf("areas = %d, extracted = %d", len(areas), stats.Extracted)
	}
	if stats.ParseFailures["syntax"] == 0 {
		t.Error("expected syntax failures in the synthetic log")
	}
	if stats.ParseFailures["udf"] == 0 {
		t.Error("expected UDF failures")
	}
	if stats.ParseFailures["non-select"] == 0 {
		t.Error("expected admin DDL failures")
	}
	if stats.Truncated == 0 {
		t.Error("expected at least one >35-predicate query")
	}
	// Stage timings populated.
	if stats.Parse.Count == 0 || stats.Extract.Count == 0 || stats.CNF.Count == 0 {
		t.Errorf("stage stats empty: %+v", stats)
	}
	if stats.Parse.Max < stats.Parse.Min {
		t.Error("stage min/max inverted")
	}
}

func TestStageCountsConsistent(t *testing.T) {
	// Mix of clean statements, a parse failure, and an extraction failure
	// (self-join): the three extraction stages must report one observation
	// per successfully extracted statement — no more, no fewer — or the
	// §6.6 stage table's Counts disagree with each other.
	recs := []Record{
		{Seq: 0, User: "a", SQL: "SELECT * FROM PhotoObjAll WHERE ra < 10"},
		{Seq: 1, User: "a", SQL: "THIS IS NOT SQL"},
		{Seq: 2, User: "b", SQL: "SELECT * FROM PhotoObjAll p, PhotoObjAll q WHERE p.ra < q.ra"},
		{Seq: 3, User: "b", SQL: "SELECT * FROM SpecObjAll WHERE mjd > 52000"},
		{Seq: 4, User: "c", SQL: "SELECT * FROM zooSpec WHERE dec BETWEEN 30 AND 70"},
	}
	for _, workers := range []int{1, 4} {
		p := &Pipeline{Extractor: extract.New(skyserver.Schema()), Workers: workers}
		areas, st := p.Run(recs)
		if st.ExtractFailures == 0 {
			t.Fatalf("workers=%d: expected an extraction failure in the fixture", workers)
		}
		if st.Extract.Count != st.Extracted {
			t.Errorf("workers=%d: Extract.Count = %d, Extracted = %d", workers, st.Extract.Count, st.Extracted)
		}
		if st.Extract.Count != st.CNF.Count || st.CNF.Count != st.Consolidate.Count {
			t.Errorf("workers=%d: stage counts disagree: extract %d, cnf %d, consolidate %d",
				workers, st.Extract.Count, st.CNF.Count, st.Consolidate.Count)
		}
		if st.Parse.Count != st.Total {
			t.Errorf("workers=%d: Parse.Count = %d, Total = %d", workers, st.Parse.Count, st.Total)
		}
		if len(areas) != st.Extracted {
			t.Errorf("workers=%d: areas %d != extracted %d", workers, len(areas), st.Extracted)
		}
	}
}

func TestPipelinePreservesOrder(t *testing.T) {
	areas, _ := pipelineOverLog(t, 500)
	last := -1
	for _, ar := range areas {
		if ar.Record.Seq <= last {
			t.Fatalf("order broken at seq %d after %d", ar.Record.Seq, last)
		}
		last = ar.Record.Seq
	}
}

// Run's output and semantic stats do not depend on the worker count: every
// record fills its own slot and the slots are accounted in input order.
func TestPipelineSerialMatchesParallel(t *testing.T) {
	recs := workloadRecords(t, 2000)
	a1, s1 := (&Pipeline{Extractor: extract.New(skyserver.Schema()), Workers: 1}).Run(recs)
	for _, w := range []int{2, 4, 8} {
		aw, sw := (&Pipeline{Extractor: extract.New(skyserver.Schema()), Workers: w}).Run(recs)
		label := fmt.Sprintf("workers 1 vs %d", w)
		requireSameOutput(t, label, a1, aw)
		requireSameSemantics(t, label, s1, sw)
	}
}

func TestMonitorEvents(t *testing.T) {
	var events []Event
	m := NewMonitor(func(e Event) { events = append(events, e) })
	ex := extract.New(skyserver.Schema())

	a1, err := ex.ExtractSQL("SELECT * FROM PhotoObjAll WHERE ra < 10")
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(Record{Seq: 1}, a1)
	if m.EventCount(NewQueryShape) != 1 || m.EventCount(NewPredicateColumn) != 1 {
		t.Fatalf("counts = shape %d col %d", m.EventCount(NewQueryShape), m.EventCount(NewPredicateColumn))
	}
	// Same shape again: no new events.
	a2, _ := ex.ExtractSQL("SELECT * FROM PhotoObjAll WHERE ra < 20")
	m.Observe(Record{Seq: 2}, a2)
	if m.EventCount(NewQueryShape) != 1 {
		t.Error("duplicate shape should not fire")
	}
	// New column on the same relation: new shape + new column.
	a3, _ := ex.ExtractSQL("SELECT * FROM PhotoObjAll WHERE dec < 0")
	m.Observe(Record{Seq: 3}, a3)
	if m.EventCount(NewQueryShape) != 2 || m.EventCount(NewPredicateColumn) != 2 {
		t.Error("new column should fire both events")
	}
	// Categorical value.
	a4, _ := ex.ExtractSQL("SELECT * FROM SpecObjAll WHERE class = 'STAR'")
	m.Observe(Record{Seq: 4}, a4)
	if m.EventCount(NewCategoricalValue) != 1 {
		t.Error("categorical value should fire")
	}
	a5, _ := ex.ExtractSQL("SELECT * FROM SpecObjAll WHERE class = 'QSO'")
	m.Observe(Record{Seq: 5}, a5)
	if m.EventCount(NewCategoricalValue) != 2 {
		t.Error("second categorical value should fire")
	}
	if len(events) == 0 || len(m.KnownShapes()) != 3 {
		t.Errorf("events = %d, shapes = %v", len(events), m.KnownShapes())
	}
}

func TestReadSkyServerCSV(t *testing.T) {
	raw := `theTime,clientIP,requestor,server,dbname,statement,error
2012-04-01 10:15:00,131.111.0.1,anon-1,SKY1,BESTDR9,SELECT TOP 10 * FROM PhotoObjAll,0
2012-04-01 10:15:04,131.111.0.2,anon-2,SKY1,BESTDR9,"SELECT ra, dec FROM SpecObjAll WHERE ra < 180",0
2012-04-01 10:15:09,131.111.0.1,anon-1,SKY1,BESTDR9,,0
`
	recs, err := ReadSkyServerCSV(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d (empty statement must be skipped)", len(recs))
	}
	if recs[0].User != "131.111.0.1" && recs[0].User != "anon-1" {
		t.Errorf("user = %q", recs[0].User)
	}
	if !strings.Contains(recs[1].SQL, "SpecObjAll") {
		t.Errorf("sql = %q", recs[1].SQL)
	}
	if recs[1].Time-recs[0].Time != 4 {
		t.Errorf("times = %d, %d; want 4s apart", recs[0].Time, recs[1].Time)
	}
}

func TestReadSkyServerCSVAliases(t *testing.T) {
	raw := "seq,user,sql\n7,alice,SELECT 1\n8,bob,SELECT 2\n"
	recs, err := ReadSkyServerCSV(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 7 || recs[0].User != "alice" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestReadSkyServerCSVNoStatementColumn(t *testing.T) {
	if _, err := ReadSkyServerCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("expected error for missing statement column")
	}
}

func TestParseLogTime(t *testing.T) {
	if v := parseLogTime("1333274100", 0); v != 1333274100 {
		t.Errorf("epoch = %d", v)
	}
	if v := parseLogTime("2012-04-01 10:15:00", 0); v <= 0 {
		t.Errorf("datetime = %d", v)
	}
	if v := parseLogTime("not-a-time", 42); v != 42 {
		t.Errorf("fallback = %d", v)
	}
}

func TestLargeScalePipelineThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale test")
	}
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 50000, Seed: 99})
	recs := make([]Record, len(entries))
	for i, e := range entries {
		recs[i] = Record{Seq: e.Seq, User: e.User, SQL: e.SQL}
	}
	p := &Pipeline{Extractor: extract.New(skyserver.Schema())}
	areas, stats := p.Run(recs)
	if stats.Coverage() < 0.985 {
		t.Errorf("coverage = %v", stats.Coverage())
	}
	if len(areas) != stats.Extracted {
		t.Errorf("areas %d != extracted %d", len(areas), stats.Extracted)
	}
	// The paper's machine did ~2,200 q/s; even single-digit multiples of
	// that leave huge headroom, so assert a conservative floor to catch
	// pathological regressions (e.g. the CNF cap failing).
	qps := float64(stats.Total) / stats.Elapsed.Seconds()
	if qps < 2000 {
		t.Errorf("throughput = %.0f q/s", qps)
	}
}
