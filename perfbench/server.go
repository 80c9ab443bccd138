package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/memdb"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// Database and miner settings: skyserved's defaults (-rows 2000, -eps 0.06,
// -minpts 8, -seed 42).
const (
	dbRows     = 2000
	dbSeed     = 1
	minerEps   = 0.06
	minerMinPt = 8
	minerSeed  = 42
)

// retryBackoff is the fixed pause before re-sending the tail a 429 refused.
const retryBackoff = 2 * time.Millisecond

func minerConfig(stats *schema.Stats) core.Config {
	return core.Config{
		Schema: skyserver.Schema(), Stats: stats,
		Eps: minerEps, MinPts: minerMinPt,
		Mode: distance.ModeEndpoint, Seed: minerSeed,
	}
}

// newDB builds the synthetic SkyServer instance and a stats registry seeded
// from it, exactly as skyserved does at start-up.
func newDB() (*memdb.DB, *schema.Stats) {
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: dbRows, Seed: dbSeed})
	stats := schema.NewStats()
	skyserver.SeedStats(db, stats)
	return db, stats
}

// serverConfig is skyserved's standalone configuration (WAL, snapshot,
// traffic classes, coverage and the /query cache all on) with automatic
// epochs disabled: epochs run only at the workload's explicit /flush calls,
// so the work done depends on the seed and not on the scheduler.
func serverConfig(dir string, db *memdb.DB, stats *schema.Stats) serve.Config {
	return serve.Config{
		Miner:        minerConfig(stats),
		Coverage:     db,
		QueryDB:      db,
		SnapshotPath: filepath.Join(dir, "state.json"),
		WALDir:       filepath.Join(dir, "wal"),
		Traffic:      &traffic.Config{},
		EpochAreas:   1 << 30,
		// EpochInterval 0 disables the timer trigger.
	}
}

// instance is one running server and the directory holding its state.
type instance struct {
	dir string
	db  *memdb.DB
	srv *serve.Server
	h   http.Handler
}

// start builds the database, seeds stats and starts a server on dir, and
// returns once /healthz answers 200.
func start(dir string) (*instance, error) {
	db, stats := newDB()
	srv, err := serve.NewServer(serverConfig(dir, db, stats))
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	in := &instance{dir: dir, db: db, srv: srv, h: srv.Handler()}
	if code, _, body := in.do(http.MethodGet, "/healthz", nil, ""); code != http.StatusOK {
		srv.Abort()
		return nil, fmt.Errorf("healthz: %d %s", code, body)
	}
	return in, nil
}

// do sends one in-memory request through the server's handler.
func (in *instance) do(method, path string, body []byte, ctype string) (int, http.Header, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	rec := httptest.NewRecorder()
	in.h.ServeHTTP(rec, req)
	return rec.Code, rec.Header(), rec.Body.Bytes()
}

// ingest posts one pre-encoded NDJSON batch, re-sending the refused tail
// after a fixed backoff whenever the server answers 429. Each POST is a
// child span of sp.
func (in *instance) ingest(b *batch, sp span) error {
	from := 0
	for {
		post := sp.child("serve.ingest.post")
		code, _, body := in.do(http.MethodPost, "/ingest", b.body[b.offs[from]:], "application/x-ndjson")
		post.end()
		var reply struct {
			Accepted int    `json:"accepted"`
			Error    string `json:"error"`
		}
		if jerr := json.Unmarshal(body, &reply); jerr != nil {
			return fmt.Errorf("ingest: status %d, unreadable reply: %v", code, jerr)
		}
		switch code {
		case http.StatusAccepted:
			if from+reply.Accepted != b.n {
				return fmt.Errorf("ingest: acknowledged %d of %d records", from+reply.Accepted, b.n)
			}
			return nil
		case http.StatusTooManyRequests:
			from += reply.Accepted
			time.Sleep(retryBackoff)
		default:
			return fmt.Errorf("ingest: status %d: %s", code, reply.Error)
		}
	}
}

func (in *instance) post(path string) error {
	if code, _, body := in.do(http.MethodPost, path, nil, ""); code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, code, body)
	}
	return nil
}

func (in *instance) report() ([]byte, error) {
	code, _, body := in.do(http.MethodGet, "/report", nil, "")
	if code != http.StatusOK {
		return nil, fmt.Errorf("/report: status %d: %s", code, body)
	}
	return body, nil
}

// walBytes sums the sizes of the WAL segment files.
func (in *instance) walBytes() (int64, error) {
	var n int64
	err := filepath.Walk(filepath.Join(in.dir, "wal"), func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// reference is the batch miner's result over a workload's records.
type reference struct {
	db     *memdb.DB
	res    *core.Result
	report []byte // the text report /report must serve after the final flush
}

// newReference mines recs with the one-shot batch miner on a fresh database,
// with coverage attached, exactly as the server renders its /report.
func newReference(recs []qlog.Record) (*reference, error) {
	db, stats := newDB()
	res := core.NewMiner(minerConfig(stats)).MineRecords(recs)
	res.AttachCoverage(db)
	var buf bytes.Buffer
	if err := report.Write(&buf, res, report.Text, report.Options{Coverage: true}); err != nil {
		return nil, fmt.Errorf("rendering the reference report: %w", err)
	}
	return &reference{db: db, res: res, report: buf.Bytes()}, nil
}
