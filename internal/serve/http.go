package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/memdb"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/traffic"
)

// Backend is what the shared HTTP surface serves from: one *Server (the
// single node) or a shard coordinator over N of them. Every shared endpoint
// has exactly one handler, written against this interface, so a client gets
// the same contract — status codes, JSON keys, ETags — from either topology.
type Backend interface {
	// Enqueue admits one record: ErrClosed answers 503, ErrRecordTooLarge
	// 400 (the record is refused for good), any other error 429
	// (backpressure: the client re-sends the tail).
	Enqueue(rec qlog.Record) error
	// Commit is the durability barrier run before any reply acknowledging
	// accepted > 0 records (a no-op where nothing is logged).
	Commit(accepted int) error
	// Flush drains everything accepted and runs an epoch (blocks).
	Flush()
	// FlushJSON and StatsJSON are the /flush and /stats reply bodies.
	FlushJSON() map[string]any
	StatsJSON() map[string]any
	// Latest returns the newest result for one traffic class ("" = the
	// classless report), its generation, and the names of shards whose
	// contribution is last-known rather than fresh (nil result before the
	// first epoch).
	Latest(class string) (*core.Result, int64, []string)
	// TrafficEnabled reports whether the class-aware surfaces are on.
	TrafficEnabled() bool
	// DriftEvents returns the drift log, filtered to one class ("" = all).
	DriftEvents(class string) []traffic.Event
	// Interfaces returns the top-K mined query interfaces (top <= 0 = all)
	// and how many fingerprints are tracked.
	Interfaces(top int) ([]traffic.Interface, int)
	// Closed reports whether the backend is shutting down.
	Closed() bool
}

// NewMux returns the HTTP surface both topologies share:
//
//	POST /ingest    JSON array, single object, or NDJSON stream of records
//	POST /flush     drain the queue and run an epoch (blocks)
//	GET  /report    latest clustering (text/csv/json, content-negotiated,
//	                ETag/If-None-Match aware; ?class=bot|human|admin serves
//	                one traffic class's partition of it; X-Stale-Shards lists
//	                shards serving last-known results)
//	GET  /drift     per-class interest-drift events (?class= filters)
//	GET  /interfaces  hottest statement templates as parameterized query
//	                interfaces (?top=N)
//	GET  /stats     cumulative pipeline statistics
//	GET  /metrics   reg's counters and gauges as one flat JSON object, keyed
//	                by MetricKey; ?format=prom renders reg plus the
//	                process-wide Default registry in Prometheus text format
//	GET  /debug/slowlog  top-K slowest statements by fingerprint (?k=N)
//	GET  /healthz   readiness
//
// reg is the backend's private registry, the one source of its /metrics
// view. opts carries the report defaults (row cap, coverage columns). A
// backend that also has a MergeIsExact() bool method answers /report with
// an X-Merge-Exact header.
func NewMux(b Backend, reg *obs.Registry, opts report.Options) *http.ServeMux {
	h := &handlers{b: b, reg: reg, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", h.ingest)
	mux.HandleFunc("/flush", h.flush)
	mux.HandleFunc("/report", h.report)
	mux.HandleFunc("/drift", h.drift)
	mux.HandleFunc("/interfaces", h.interfaces)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, b.StatsJSON())
	})
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/debug/slowlog", handleSlowlog)
	mux.HandleFunc("/healthz", h.healthz)
	return mux
}

// Handler returns the single node's HTTP surface: the shared set (NewMux)
// plus the endpoints only a node holding the data and the WAL can answer,
// behind Guard:
//
//	POST /snapshot  write the snapshot now
//	POST /query     execute a statement via the semantic result cache
//	POST /remine    mine a historical window from the WAL
func (s *Server) Handler() http.Handler {
	mux := NewMux(s, s.reg, report.Options{Coverage: s.cfg.Coverage != nil})
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/remine", s.handleRemine)
	return Guard(mux)
}

// MaxBodyBytes caps every POST body. The largest legitimate body is an
// ingest batch — hundreds of records of a few hundred bytes each — so 8 MiB
// leaves ample headroom while a hostile or runaway client cannot make a
// handler buffer without bound. A larger /ingest body answers 413, after
// admitting (and acknowledging) the NDJSON records that fit.
const MaxBodyBytes = 8 << 20

// MaxLineBytes caps one NDJSON line of an /ingest body, its newline
// included. A shard coordinator forwards records to its shards as NDJSON,
// so it refuses at admission any record whose forwarded line would exceed
// it (ErrRecordTooLarge): the shard would refuse that line.
const MaxLineBytes = 4 << 20

// Guard wraps a listener's handler set in the protections both topologies
// share: every POST body is capped at MaxBodyBytes, and a panicking handler
// answers 500 and is counted in skyaccess_serve_handler_panics_total. (Left
// alone, net/http would log the panic and drop the connection without a
// status.) A handler that panics after its response has started keeps the
// status it already sent; the 500 write then only appends to that body.
func Guard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v) // net/http's own sentinel for aborting a response
			}
			handlerPanics.Inc()
			log.Printf("serve: %s %s: handler panic: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			http.Error(w, "internal server error", http.StatusInternalServerError)
		}()
		if r.Method == http.MethodPost {
			r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
		}
		h.ServeHTTP(w, r)
	})
}

// bodyStatus is the status for a failed body read: 413 when the body
// exceeded MaxBodyBytes, 400 for anything else.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// handlers binds the shared endpoints to one backend.
type handlers struct {
	b    Backend
	reg  *obs.Registry
	opts report.Options
}

// ingestReply is the JSON body of every /ingest response.
type ingestReply struct {
	Accepted int    `json:"accepted"`
	Dropped  int    `json:"dropped,omitempty"`
	Error    string `json:"error,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// ingest implements POST /ingest: an NDJSON or JSON body, one Enqueue per
// record in input order. A refusal answers 429 (503 when closing) with the
// count accepted so far — accepted records are never dropped, the client
// re-sends the remainder. Every reply that acknowledges records is preceded
// by the backend's durability barrier: with a WAL, an ack implies the
// records survive a crash.
func (h *handlers) ingest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ct := r.Header.Get("Content-Type")
	ndjson := strings.Contains(ct, "ndjson") || strings.Contains(ct, "jsonl") ||
		strings.Contains(ct, "jsonlines") || strings.Contains(ct, "text/plain")
	if ndjson {
		ingestNDJSON(w, r, h.b)
		return
	}
	ingestJSON(w, r, h.b)
}

// replyIngest writes an ingest reply, running the durability barrier first
// whenever the reply would acknowledge records. A barrier failure turns the
// reply into a 500 with zero accepted — nothing is acknowledged that did
// not reach stable storage.
func replyIngest(w http.ResponseWriter, status int, reply ingestReply, b Backend) {
	if reply.Accepted > 0 {
		if err := b.Commit(reply.Accepted); err != nil {
			writeJSON(w, http.StatusInternalServerError, ingestReply{
				Error: "durability barrier failed, nothing acknowledged: " + err.Error(),
			})
			return
		}
	}
	writeJSON(w, status, reply)
}

// ingestNDJSON streams one record per line into the queue without holding
// the whole body in memory.
func ingestNDJSON(w http.ResponseWriter, r *http.Request, b Backend) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64*1024), MaxLineBytes)
	accepted := 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec qlog.Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			replyIngest(w, http.StatusBadRequest, ingestReply{
				Accepted: accepted,
				Error:    fmt.Sprintf("line %d: %v", line, err),
			}, b)
			return
		}
		if err := b.Enqueue(rec); err != nil {
			ingestRejected(w, accepted, err, b)
			return
		}
		accepted++
	}
	if err := sc.Err(); err != nil {
		replyIngest(w, bodyStatus(err), ingestReply{Accepted: accepted, Error: err.Error()}, b)
		return
	}
	replyIngest(w, http.StatusAccepted, ingestReply{Accepted: accepted}, b)
}

// ingestJSON handles an application/json body: an array of records or one
// record object. Every record decodes before any is admitted, so a
// malformed body admits nothing.
func ingestJSON(w http.ResponseWriter, r *http.Request, b Backend) {
	var raw json.RawMessage
	err := json.NewDecoder(r.Body).Decode(&raw)
	if err != nil {
		writeJSON(w, bodyStatus(err), ingestReply{Error: err.Error()})
		return
	}
	var recs []qlog.Record
	switch {
	case raw[0] == '[':
		err = json.Unmarshal(raw, &recs)
	case raw[0] == '{':
		recs = make([]qlog.Record, 1)
		err = json.Unmarshal(raw, &recs[0])
	default:
		err = errors.New("body must be a JSON array, object, or NDJSON stream")
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ingestReply{Error: err.Error()})
		return
	}
	accepted := 0
	for i := range recs {
		if err := b.Enqueue(recs[i]); err != nil {
			ingestRejected(w, accepted, err, b)
			return
		}
		accepted++
	}
	replyIngest(w, http.StatusAccepted, ingestReply{Accepted: accepted}, b)
}

func ingestRejected(w http.ResponseWriter, accepted int, err error, b Backend) {
	status := http.StatusTooManyRequests
	switch err {
	case ErrClosed:
		status = http.StatusServiceUnavailable
	case ErrRecordTooLarge:
		status = http.StatusBadRequest
	}
	replyIngest(w, status, ingestReply{Accepted: accepted, Dropped: 1, Error: err.Error()}, b)
}

func (h *handlers) flush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	h.b.Flush()
	writeJSON(w, http.StatusOK, h.b.FlushJSON())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.SnapshotPath == "" {
		http.Error(w, "no snapshot path configured", http.StatusConflict)
		return
	}
	if err := s.WriteSnapshot(s.cfg.SnapshotPath); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"path": s.cfg.SnapshotPath})
}

// queryReply is the JSON body of every /query response.
type queryReply struct {
	Columns  []string `json:"columns,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	RowCount int      `json:"row_count"`
	Cache    struct {
		Hit        bool   `json:"hit"`
		Region     int    `json:"region,omitempty"`
		Path       string `json:"path,omitempty"`
		Generation int64  `json:"generation"`
		Reason     string `json:"reason,omitempty"`
	} `json:"cache"`
	Error string `json:"error,omitempty"`
}

// handleQuery executes one SELECT through the semantic result cache: the
// statement's access area is extracted (via the shared template cache) and,
// when a prefetched region provably contains it, answered from the region's
// store; otherwise it falls through to direct execution. The body is
// either raw SQL or a JSON object {"sql": "..."}.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sp := queryServeStage.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.qcache == nil {
		http.Error(w, "query serving not configured (no database attached)", http.StatusConflict)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sql := strings.TrimSpace(string(body))
	if strings.Contains(r.Header.Get("Content-Type"), "application/json") {
		var req struct {
			SQL string `json:"sql"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, queryReply{Error: err.Error()})
			return
		}
		sql = req.SQL
	}
	if sql == "" {
		writeJSON(w, http.StatusBadRequest, queryReply{Error: "empty statement"})
		return
	}
	rs, info, qerr := s.qcache.Query(sql)
	var reply queryReply
	reply.Cache.Hit = info.Hit
	reply.Cache.Region = info.RegionID
	reply.Cache.Path = info.Path
	reply.Cache.Generation = info.Generation
	reply.Cache.Reason = info.Reason
	cacheHeader := "MISS"
	if info.Hit {
		cacheHeader = "HIT"
		w.Header().Set("X-Cache-Region", strconv.Itoa(info.RegionID))
		w.Header().Set("X-Cache-Path", info.Path)
	}
	w.Header().Set("X-Cache", cacheHeader)
	w.Header().Set("X-Cache-Generation", strconv.FormatInt(info.Generation, 10))
	if qerr != nil {
		reply.Error = qerr.Error()
		writeJSON(w, http.StatusBadRequest, reply)
		return
	}
	reply.Columns = rs.Columns
	reply.RowCount = len(rs.Rows)
	reply.Rows = make([][]any, len(rs.Rows))
	for i, row := range rs.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case memdb.Num:
				out[j] = v.Num
			case memdb.Str:
				out[j] = v.Str
			default:
				out[j] = nil
			}
		}
		reply.Rows[i] = out
	}
	writeJSON(w, http.StatusOK, reply)
}

// negotiateFormat picks the report encoding: ?format= wins, then Accept.
func negotiateFormat(r *http.Request) (report.Format, error) {
	if f := r.URL.Query().Get("format"); f != "" {
		return report.ParseFormat(f)
	}
	accept := r.Header.Get("Accept")
	switch {
	case strings.Contains(accept, "application/json"):
		return report.JSON, nil
	case strings.Contains(accept, "text/csv"):
		return report.CSV, nil
	default:
		return report.Text, nil
	}
}

var contentTypes = map[report.Format]string{
	report.Text: "text/plain; charset=utf-8",
	report.CSV:  "text/csv",
	report.JSON: "application/json",
}

// classParam validates ?class=: 409 when the backend mines no traffic
// classes, 400 for an unknown class. ok is false once an error was written.
func (h *handlers) classParam(w http.ResponseWriter, r *http.Request) (class string, ok bool) {
	class = r.URL.Query().Get("class")
	if class == "" {
		return "", true
	}
	if !h.b.TrafficEnabled() {
		http.Error(w, "traffic mining not configured", http.StatusConflict)
		return "", false
	}
	if !traffic.ValidClass(class) {
		http.Error(w, "class must be bot, human or admin", http.StatusBadRequest)
		return "", false
	}
	return class, true
}

func (h *handlers) report(w http.ResponseWriter, r *http.Request) {
	sp := reportStage.Start()
	defer sp.End()
	format, err := negotiateFormat(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	class, ok := h.classParam(w, r)
	if !ok {
		return
	}
	res, gen, stale := h.b.Latest(class)
	if res == nil {
		http.Error(w, "no epoch has run yet — POST /flush or keep ingesting", http.StatusServiceUnavailable)
		return
	}
	opts := h.opts
	if t := r.URL.Query().Get("top"); t != "" {
		n, err := strconv.Atoi(t)
		if err != nil || n < 0 {
			http.Error(w, "top must be a non-negative integer", http.StatusBadRequest)
			return
		}
		opts.Top = n
	}
	if len(stale) > 0 {
		w.Header().Set("X-Stale-Shards", strings.Join(stale, ","))
	}
	if m, ok := h.b.(interface{ MergeIsExact() bool }); ok {
		w.Header().Set("X-Merge-Exact", strconv.FormatBool(m.MergeIsExact()))
	}
	// The report body is a pure function of (generation, class, format,
	// top, stale set), so that tuple is the entity tag: polling clients send
	// If-None-Match and skip re-downloading an unchanged Table-1 view, and a
	// shard recovering (fewer stale shards) invalidates cached copies.
	etag := fmt.Sprintf(`"r%d-%s-%s-%d-%s"`, gen, class, format, opts.Top, strings.Join(stale, "+"))
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" {
		for _, cand := range strings.Split(match, ",") {
			cand = strings.TrimSpace(cand)
			cand = strings.TrimPrefix(cand, "W/")
			if cand == etag || cand == "*" {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
	}
	w.Header().Set("Content-Type", contentTypes[format])
	_ = report.Write(w, res, format, opts)
}

// drift serves GET /drift: the deterministic per-class interest-drift
// event log (?class=bot|human|admin filters).
func (h *handlers) drift(w http.ResponseWriter, r *http.Request) {
	if !h.b.TrafficEnabled() {
		http.Error(w, "traffic mining not configured", http.StatusConflict)
		return
	}
	class, ok := h.classParam(w, r)
	if !ok {
		return
	}
	events := h.b.DriftEvents(class)
	writeJSON(w, http.StatusOK, map[string]any{
		"events": events,
		"count":  len(events),
	})
}

// interfaces serves GET /interfaces: the top-K hottest statement
// fingerprints rendered as parameterized query interfaces (?top=N, default
// 10).
func (h *handlers) interfaces(w http.ResponseWriter, r *http.Request) {
	if !h.b.TrafficEnabled() {
		http.Error(w, "traffic mining not configured", http.StatusConflict)
		return
	}
	top := 10
	if q := r.URL.Query().Get("top"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			http.Error(w, "top must be a positive integer", http.StatusBadRequest)
			return
		}
		top = n
	}
	ifaces, tracked := h.b.Interfaces(top)
	writeJSON(w, http.StatusOK, map[string]any{
		"interfaces": ifaces,
		"tracked":    tracked,
	})
}

// metrics serves the backend's registry: by default as a flat JSON object
// (see MetricKey), with ?format=prom together with the process-wide Default
// registry (stage histograms, package counters) in Prometheus text
// exposition format. Both views read atomics, holding no server lock longer
// than a counter copy, so a slow /metrics client never stalls ingest or an
// epoch flush (TestMetricsConcurrentWithFlush hammers this under -race).
func (h *handlers) metrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = h.reg.WritePrometheus(w)
		_ = obs.Default().WritePrometheus(w)
		return
	}
	snap := h.reg.Snapshot()
	view := make(map[string]float64, len(snap))
	for name, v := range snap {
		view[MetricKey(name)] = v
	}
	writeJSON(w, http.StatusOK, view)
}

// MetricKey is the JSON /metrics key of a registry metric: its name without
// the skyaccess_serve_, skyaccess_coord_ or skyaccess_ prefix and without a
// _total suffix (skyaccess_serve_ingest_accepted_total → ingest_accepted,
// skyaccess_semcache_bytes_resident → semcache_bytes_resident).
func MetricKey(name string) string {
	for _, p := range []string{"skyaccess_serve_", "skyaccess_coord_", "skyaccess_"} {
		if k, ok := strings.CutPrefix(name, p); ok {
			name = k
			break
		}
	}
	return strings.TrimSuffix(name, "_total")
}

// slowlogEntry is the JSON shape of one /debug/slowlog row; the fingerprint
// renders as fixed-width hex so it lines up with log-mining tooling.
type slowlogEntry struct {
	Fingerprint string  `json:"fingerprint"`
	Stage       string  `json:"stage"`
	Seconds     float64 `json:"seconds"`
	UnixNano    int64   `json:"unix_nano"`
}

// handleSlowlog serves the top-K slowest recorded operations (ranked by
// extraction+execution time, identified by statement fingerprint — raw SQL
// never appears here). ?k=N caps the rows (default 20, 0 = everything
// resident in the ring).
func handleSlowlog(w http.ResponseWriter, r *http.Request) {
	k := 20
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "k must be a non-negative integer", http.StatusBadRequest)
			return
		}
		k = n
	}
	top := obs.DefaultSlowLog.TopK(k)
	out := make([]slowlogEntry, len(top))
	for i, e := range top {
		out[i] = slowlogEntry{
			Fingerprint: fmt.Sprintf("%016x", e.Fingerprint),
			Stage:       e.Stage,
			Seconds:     e.Seconds,
			UnixNano:    e.UnixNano,
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": out})
}

func (h *handlers) healthz(w http.ResponseWriter, r *http.Request) {
	if h.b.Closed() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// The single node as a Backend.

// Enqueue admits one record (see enqueue).
func (s *Server) Enqueue(rec qlog.Record) error { return s.enqueue(rec) }

// Closed reports whether Shutdown (or Abort) has begun.
func (s *Server) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// FlushJSON is the /flush reply body.
func (s *Server) FlushJSON() map[string]any {
	return map[string]any{
		"distinct_areas": s.inc.Distinct(),
		"epochs":         s.epochs.Load(),
	}
}

// StatsJSON is the /stats reply body. With /query on, it carries the
// semantic cache's per-region serving counters.
func (s *Server) StatsJSON() map[string]any {
	stats := map[string]any{
		"pipeline":       s.statsSnapshot(),
		"distinct_areas": s.inc.Distinct(),
		"accepted":       s.accepted.Load(),
		"rejected":       s.rejected.Load(),
		"processed":      s.processedCount(),
		"epochs":         s.epochs.Load(),
	}
	if s.qcache != nil {
		stats["semcache_per_region"] = s.qcache.PerRegion()
	}
	return stats
}

func (s *Server) processedCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.processed
}
