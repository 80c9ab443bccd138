package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/qlog"
	"repro/internal/skyserver"
)

// Workload names, in the order BENCHMARK.json lists them.
const (
	mineNovel = "mine_novel"
	ingestDup = "ingest_dup"
)

var workloads = []string{mineNovel, ingestDup}

// sizes fixes the work one round does; its inputs depend on the round's
// seed alone.
type sizes struct {
	records    int // records ingested in the timed phase
	batch      int // records per /ingest request
	flushEvery int // records between two /flush calls
	pool       int // ingest_dup: distinct statements the records are drawn from
	queries    int // /query requests sent after the final flush

	// roundSeconds is the nominal wall time of one round, reference mining
	// included, on a 2-vCPU VM; --seconds / roundSeconds rounds make a run.
	roundSeconds float64
}

// fullSizes are the benchmark's sizes.
var fullSizes = map[string]sizes{
	mineNovel: {records: 3000, batch: 100, flushEvery: 375, queries: 60, roundSeconds: 8},
	ingestDup: {records: 25000, batch: 500, flushEvery: 6250, pool: 1000, queries: 60, roundSeconds: 8},
}

// batch is one pre-encoded NDJSON /ingest body; offs[i] is the byte offset
// of record i, so the tail a 429 refused is re-sent without re-encoding.
type batch struct {
	body []byte
	offs []int
	n    int
}

// query is one pre-built /query request. check marks the fixed sample whose
// replies are compared against direct database execution.
type query struct {
	sql   string
	check bool
}

type stepKind int

const (
	stepIngest stepKind = iota
	stepFlush
	stepSnapshot
)

type step struct {
	kind  stepKind
	batch *batch
}

// inputs is everything one workload sends, generated from the seed before
// any timing starts.
type inputs struct {
	seed    int64
	steps   []step   // the timed phase; it ends with a /flush
	reads   []*query // sent after the final flush
	records []qlog.Record
}

// checkEvery picks the fixed query sample verified against direct execution.
const checkEvery = 10

func buildInputs(workload string, seed int64, sz sizes) (*inputs, error) {
	in := &inputs{seed: seed}
	switch workload {
	case mineNovel:
		in.records = logRecords(skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: sz.records, Seed: seed}))
	case ingestDup:
		in.records = resampleZipf(seed, sz.pool, sz.records)
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	timed := in.records

	// The snapshot lands at the first flush past the middle of the timed
	// records, so recovery replays about half of them from the WAL.
	snapAt := len(timed) / 2
	snapped := false
	// A flush follows the batch that crosses each multiple of flushEvery;
	// the final flush is appended after the loop.
	addBatch := func(recs []qlog.Record, done int) {
		in.steps = append(in.steps, step{kind: stepIngest, batch: encodeBatch(recs)})
		if done/sz.flushEvery > (done-len(recs))/sz.flushEvery && done < len(timed) {
			in.steps = append(in.steps, step{kind: stepFlush})
			if !snapped && done >= snapAt {
				in.steps = append(in.steps, step{kind: stepSnapshot})
				snapped = true
			}
		}
	}
	for i := 0; i < len(timed); i += sz.batch {
		end := min(i+sz.batch, len(timed))
		addBatch(timed[i:end], end)
	}
	in.reads = heldOutQueries(seed, sz.queries)
	in.steps = append(in.steps, step{kind: stepFlush})
	if !snapped {
		return nil, fmt.Errorf("%s: no flush past record %d to snapshot at", workload, snapAt)
	}
	return in, nil
}

func logRecords(log []skyserver.LogEntry) []qlog.Record {
	recs := make([]qlog.Record, len(log))
	for i, e := range log {
		recs[i] = qlog.Record{Seq: i, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}

// resampleZipf draws n records from a pool of mixed bot/human/admin
// statements with Zipf-distributed popularity (exponent 1.1, offset 20), so
// that, as in SkyServer traffic, a small set of statements is re-issued over
// and over. The shape is not fitted to published SkyServer figures. The
// offset was chosen to damp run-to-run noise: it flattens the head so that no
// statement carries more than about 1.5% of the records, and which statement
// a seed ranks first does not decide the per-record cost. The hottest hundred
// statements carry about half the records (TestZipfShape measures both).
// Record i keeps its pool entry's user and gets logical time i.
func resampleZipf(seed int64, pool, n int) []qlog.Record {
	log := skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: pool, Seed: seed}, skyserver.ClassMix{})
	r := rand.New(rand.NewSource(seed))
	rank := r.Perm(len(log))
	z := rand.NewZipf(r, 1.1, 20, uint64(len(log)-1))
	recs := make([]qlog.Record, n)
	for i := range recs {
		e := log[rank[z.Uint64()]]
		recs[i] = qlog.Record{Seq: i, Time: int64(i), User: e.User, SQL: e.SQL}
	}
	return recs
}

// heldOutQueries draws n /query statements from a log generated at another
// seed. Statements the generator labels error, admin or mysql are dropped:
// the server rightly answers them 400.
func heldOutQueries(seed int64, n int) []*query {
	log := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: n + n/8 + 64, Seed: seed ^ 0x5eed})
	out := make([]*query, 0, n)
	for _, e := range log {
		if len(out) == n {
			break
		}
		switch e.Template {
		case "error", "admin", "mysql":
			continue
		}
		out = append(out, &query{sql: e.SQL, check: len(out)%checkEvery == 0})
	}
	return out
}

func encodeBatch(recs []qlog.Record) *batch {
	b := &batch{n: len(recs), offs: make([]int, len(recs)+1)}
	for i := range recs {
		b.offs[i] = len(b.body)
		line, err := json.Marshal(&recs[i])
		if err != nil {
			panic(err) // a qlog.Record of plain strings and ints always encodes
		}
		b.body = append(append(b.body, line...), '\n')
	}
	b.offs[len(recs)] = len(b.body)
	return b
}
