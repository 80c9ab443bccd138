package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/memdb"
	"repro/internal/obs"
	"repro/internal/serve"
)

// reportGets is how many timed GET /report calls a round makes after the
// read phase; the last body is the one checked.
const reportGets = 20

// setupsPerRound is how many fresh set-ups a round times besides its own.
const setupsPerRound = 3

// round is what one pass over a workload's inputs measured. Its times are
// as read on the benchmark's clock; scale them by factor.
type round struct {
	setupS    []float64
	visibleMs []float64
	queries   int
	hits      int
	paths     map[string]int // cache hits by X-Cache-Path
	records   int            // records acknowledged
	writeS    float64        // clock time in /ingest, /flush and /snapshot calls
	heapMB    float64
	walBytes  int64
	recoverS  []float64
	wallS     float64 // the round from set-up to recovery, checks excluded
	probes    [phases][]float64

	attempted, failed int
	errs              []string

	// Traced rounds only: program-stage deltas over the round and the
	// server's own counters read before the crash.
	stages  map[string]float64
	metrics map[string]any
}

// fail counts one failed operation and keeps its reason for stderr.
func (r *round) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// checkedQuery is a sampled /query reply kept for the untimed check.
type checkedQuery struct {
	q    *query
	body []byte
}

// recoveries is how many times a round restarts its crashed server from the
// same snapshot and WAL.
const recoveries = 3

// phase names the part of a round a calibration sample belongs to.
type phase int

const (
	phaseSetup   phase = iota // bracketing the round's set-ups
	phaseWrite                // after each /flush of the timed phase
	phaseRecover              // before each recovery
	phases
)

// probe times the calibration task once and keeps the sample for ph.
func (r *round) probe(cal *calibrator, ph phase) {
	r.probes[ph] = append(r.probes[ph], cal.sample())
}

// factor is how much faster the nominal host is than the host was during
// phase ph of this round, for a workload whose times follow the probe's to
// the power exp: multiply a time by it, divide a rate by it.
func (r *round) factor(ph phase, exp float64) float64 {
	return math.Pow(nominalProbeS/median(r.probes[ph]), exp)
}

// runRound sets a server up in a fresh directory under work, drives the
// workload through it, crashes it, recovers it and checks every output.
// ref is the report the batch miner produces for the same records. cal
// samples the host's speed before and after the set-ups, after each /flush
// and before each recovery; each phase's times are scaled by the samples
// taken beside them.
func runRound(in *inputs, ref []byte, work string, tr *tracer, cal *calibrator) (*round, error) {
	dir, err := os.MkdirTemp(work, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &round{paths: map[string]int{}}
	var before map[string]float64
	if tr != nil {
		before = obs.Default().Snapshot()
	}
	baseHeap := liveHeap()

	r.probe(cal, phaseSetup)
	t0 := time.Now()
	for i := 0; i < setupsPerRound; i++ {
		s, err := setupOnce(work)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, s)
		r.attempted++
	}
	runtime.GC()
	sp := tr.begin("setup")
	c := clock()
	inst, err := start(dir)
	sp.end()
	if err != nil {
		return nil, err
	}
	r.setupS = append(r.setupS, since(c))
	r.attempted++
	r.probe(cal, phaseSetup)
	crashed := false
	defer func() {
		if !crashed {
			inst.srv.Abort()
		}
	}()

	runtime.GC()
	for _, st := range in.steps {
		t := clock()
		switch st.kind {
		case stepIngest:
			r.ingest(inst, st.batch, tr)
			r.records += st.batch.n
		case stepFlush:
			r.flush(inst, tr)
		case stepSnapshot:
			r.attempted++
			sp := tr.begin("serve.snapshot")
			err := inst.post("/snapshot")
			sp.end()
			if err != nil {
				r.fail("%v", err)
			}
		}
		r.writeS += since(t)
		if st.kind == stepFlush {
			r.probe(cal, phaseWrite)
		}
	}
	if r.walBytes, err = inst.walBytes(); err != nil {
		return nil, err
	}
	r.heapMB = float64(liveHeap()-baseHeap) / (1 << 20) // liveHeap collects first

	var checked []checkedQuery
	for _, q := range in.reads {
		checked = r.query(inst, q, checked, tr)
	}
	var final []byte
	for i := 0; i < reportGets; i++ {
		r.attempted++
		sp := tr.begin("serve.report")
		body, err := inst.report()
		sp.end()
		if err != nil {
			r.fail("%v", err)
		}
		final = body
	}
	if tr != nil {
		r.metrics = serverMetrics(inst)
	}

	// Crash: no final epoch, no snapshot. The snapshot taken mid-ingest plus
	// the WAL tail must rebuild the same report.
	inst.srv.Abort()
	crashed = true
	var recovered []byte
	for i := 0; i < recoveries; i++ {
		r.probe(cal, phaseRecover)
		body, el, err := recoverOnce(dir, tr)
		r.attempted++
		if err != nil {
			r.fail("recovery: %v", err)
			continue
		}
		r.recoverS = append(r.recoverS, el)
		if i > 0 && !bytes.Equal(body, recovered) {
			r.fail("recovery %d served a different report than recovery 0", i)
		}
		recovered = body
	}
	r.wallS = time.Since(t0).Seconds()
	if tr != nil {
		r.stages = deltas(before, obs.Default().Snapshot())
	}

	// Untimed checks, each one counted operation.
	r.attempted++
	if !bytes.Equal(final, ref) {
		r.fail("final /report differs from the batch miner over the acknowledged records")
	}
	r.attempted++
	if !bytes.Equal(recovered, final) {
		r.fail("/report after crash recovery differs from the report before the crash")
	}
	for _, c := range checked {
		r.attempted++
		if err := checkQuery(inst.db, c); err != nil {
			r.fail("query %q: %v", c.q.sql, err)
		}
	}
	return r, nil
}

func (r *round) ingest(inst *instance, b *batch, tr *tracer) {
	r.attempted++
	sp := tr.begin("serve.ingest")
	err := inst.ingest(b, sp)
	sp.end()
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *round) flush(inst *instance, tr *tracer) {
	r.attempted++
	sp := tr.begin("serve.flush")
	t := clock()
	err := inst.post("/flush")
	r.visibleMs = append(r.visibleMs, since(t)*1000)
	sp.end()
	if err != nil {
		r.fail("%v", err)
	}
}

func (r *round) query(inst *instance, q *query, checked []checkedQuery, tr *tracer) []checkedQuery {
	r.attempted++
	r.queries++
	sp := tr.begin("serve.query")
	code, hdr, body := inst.do(http.MethodPost, "/query", []byte(q.sql), "text/plain")
	sp.end()

	if code != http.StatusOK {
		r.fail("query %q: status %d: %s", q.sql, code, body)
		return checked
	}
	if hdr.Get("X-Cache") == "HIT" {
		r.hits++
		r.paths[hdr.Get("X-Cache-Path")]++
	}
	if q.check {
		checked = append(checked, checkedQuery{q: q, body: body})
	}
	return checked
}

// queryExec is the execution limit the server applies by default.
var queryExec = memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}

// jsonRows converts a result set's rows the way /query renders them.
func jsonRows(rs *memdb.ResultSet) [][]any {
	rows := make([][]any, len(rs.Rows))
	for i, row := range rs.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case memdb.Num:
				out[j] = v.Num
			case memdb.Str:
				out[j] = v.Str
			}
		}
		rows[i] = out
	}
	return rows
}

// queryResult is the part of a /query reply that direct execution must
// reproduce.
type queryResult struct {
	Columns  []string `json:"columns"`
	Rows     [][]any  `json:"rows"`
	RowCount int      `json:"row_count"`
}

// checkQuery compares a /query reply with direct execution on the database.
func checkQuery(db *memdb.DB, c checkedQuery) error {
	var got queryResult
	if err := json.Unmarshal(c.body, &got); err != nil {
		return fmt.Errorf("unreadable reply: %v", err)
	}
	rs, err := db.ExecuteSQL(c.q.sql, queryExec)
	if err != nil {
		return fmt.Errorf("direct execution failed: %v", err)
	}
	want := queryResult{Columns: rs.Columns, RowCount: len(rs.Rows), Rows: jsonRows(rs)}
	for _, q := range []*queryResult{&got, &want} {
		if len(q.Rows) == 0 {
			q.Rows = nil // the reply omits an empty row list
		}
	}
	gj, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wj, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gj, wj) {
		return fmt.Errorf("reply differs from direct execution")
	}
	return nil
}

// serverMetrics reads the server's flat /metrics view.
func serverMetrics(inst *instance) map[string]any {
	_, _, body := inst.do(http.MethodGet, "/metrics", nil, "")
	m := map[string]any{}
	_ = json.Unmarshal(body, &m) // a missing key reads as 0 downstream
	return m
}

// recoverOnce restarts a server on a crashed server's directory and times
// NewServer until /report answers 200, then crashes it again without
// touching the snapshot, so the next recovery starts from the same state.
func recoverOnce(dir string, tr *tracer) ([]byte, float64, error) {
	db, stats := newDB()
	runtime.GC()
	sp := tr.begin("recover")
	defer sp.end()
	t := clock()
	srv, err := serve.NewServer(serverConfig(dir, db, stats))
	if err != nil {
		return nil, 0, err
	}
	defer srv.Abort()
	rec := &instance{dir: dir, db: db, srv: srv, h: srv.Handler()}
	body, err := rec.report()
	return body, since(t), err
}

// setupOnce times one fresh set-up: database, seeded stats and NewServer
// until /healthz answers 200.
func setupOnce(work string) (float64, error) {
	dir, err := os.MkdirTemp(work, "setup-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	runtime.GC()
	t := clock()
	inst, err := start(dir)
	if err != nil {
		return 0, err
	}
	el := since(t)
	inst.srv.Abort()
	return el, nil
}
