package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tinySizes keep every workload's shape (flush cadence, snapshot point) at a
// scale a unit test runs in seconds.
var tinySizes = map[string]sizes{
	mineNovel: {records: 300, batch: 50, flushEvery: 75, queries: 60, roundSeconds: 1},
	ingestDup: {records: 2000, batch: 100, flushEvery: 1000, pool: 100, queries: 60, roundSeconds: 1},
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every workload, traced and untraced, passes its correctness checks with no
// failed operation and reports exactly the metrics BENCHMARK.json declares,
// with the declared units.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			for _, trace := range []bool{false, true} {
				cfg := config{workload: w, seed: 3, trace: trace, work: t.TempDir(), sizes: tinySizes[w]}
				var stderr bytes.Buffer
				res, err := bench(cfg, &stderr)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if trace {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%v: %s = %v", trace, name, m.Value)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: metrics %v, BENCHMARK.json declares %v", trace, got, want)
				}
			}
		})
	}
}

// A wrong reference report must count as a failed operation, not pass.
func TestRoundCountsReportMismatch(t *testing.T) {
	in, err := buildInputs(mineNovel, 5, tinySizes[mineNovel])
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(in.records)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer cal.close()
	work := t.TempDir()
	r, err := runRound(in, ref.report, work, nil, cal)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("good reference: %d failed: %v", r.failed, r.errs)
	}
	bad := bytes.Replace(ref.report, []byte("1"), []byte("2"), 1)
	r, err = runRound(in, bad, work, nil, cal)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || !strings.Contains(r.errs[0], "batch miner") {
		t.Fatalf("corrupted reference: failed=%d errs=%v", r.failed, r.errs)
	}
}

// A query reply that differs from direct execution is reported.
func TestCheckQueryDetectsMismatch(t *testing.T) {
	db, _ := newDB()
	q := &query{sql: "SELECT TOP 3 objid, ra FROM PhotoObjAll WHERE ra BETWEEN 190 AND 200"}
	rs, err := db.ExecuteSQL(q.sql, queryExec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("probe query returned no rows")
	}
	good, err := json.Marshal(map[string]any{"columns": rs.Columns, "rows": jsonRows(rs), "row_count": len(rs.Rows)})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQuery(db, checkedQuery{q: q, body: good}); err != nil {
		t.Fatalf("matching reply rejected: %v", err)
	}
	bad, err := json.Marshal(map[string]any{"columns": rs.Columns, "rows": jsonRows(rs)[1:], "row_count": len(rs.Rows) - 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQuery(db, checkedQuery{q: q, body: bad}); err == nil {
		t.Fatal("reply missing a row accepted")
	}
}

// The seed alone determines the inputs.
func TestInputsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := buildInputs(w, 7, tinySizes[w])
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildInputs(w, 7, tinySizes[w])
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildInputs(w, 8, tinySizes[w])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different inputs", w)
		}
		if reflect.DeepEqual(a.records, c.records) {
			t.Errorf("%s: different seeds, same records", w)
		}
	}
}

// Bad arguments exit non-zero without printing a result.
func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, io.Discard); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// The ingest_dup resample has the head its comment and README describe.
func TestZipfShape(t *testing.T) {
	sz := fullSizes[ingestDup]
	recs := resampleZipf(11, sz.pool, sz.records)
	counts := map[string]int{}
	for _, r := range recs {
		counts[r.SQL]++
	}
	var cs []int
	for _, c := range counts {
		cs = append(cs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cs)))
	top100 := 0
	for _, c := range cs[:100] {
		top100 += c
	}
	share1, share100 := float64(cs[0])/float64(len(recs)), float64(top100)/float64(len(recs))
	t.Logf("%d distinct statements; hottest carries %.3f of records, hottest 100 carry %.3f", len(cs), share1, share100)
	if share1 > 0.02 || share100 < 0.45 || share100 > 0.56 {
		t.Errorf("hottest statement %.3f (want <= 0.02), hottest 100 %.3f (want 0.45-0.56)", share1, share100)
	}
}
