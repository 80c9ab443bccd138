package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/schema"
	"repro/internal/sqlparser"
)

// remineRequest is the POST /remine body: a [from,to) record-time window,
// optionally narrowed to a relation set and/or a statement-fingerprint
// family. Fingerprints are hex (as /debug/slowlog prints them).
type remineRequest struct {
	From         int64    `json:"from"`
	To           int64    `json:"to"`
	Relations    []string `json:"relations,omitempty"`
	Fingerprints []string `json:"fingerprints,omitempty"`
	Top          int      `json:"top,omitempty"`
}

// handleRemine mines a historical time window straight from the WAL: the
// window's records stream through a throwaway miner built on a copy of the
// live registry (the live service is untouched — no counters move, no epoch
// runs) and the response is the Table-1-style report for just that window.
// The segment index keeps the read proportional to the window, not the log:
// X-Remine-Segments-Scanned/Skipped report the skip win.
func (s *Server) handleRemine(w http.ResponseWriter, r *http.Request) {
	sp := remineStage.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.wal == nil {
		http.Error(w, "re-mining not configured (no -wal-dir)", http.StatusConflict)
		return
	}
	format, err := negotiateFormat(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req remineRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	if req.To == 0 {
		req.To = 1<<63 - 1 // open-ended: everything from From onward
	}
	if req.From >= req.To {
		http.Error(w, "empty window: from must be below to", http.StatusBadRequest)
		return
	}
	fps, err := parseFingerprints(req.Fingerprints)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	res, stats, err := s.Remine(req.From, req.To, req.Relations, fps)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Remine-Records", strconv.Itoa(stats.Records))
	w.Header().Set("X-Remine-Segments-Scanned", strconv.Itoa(stats.SegmentsScanned))
	w.Header().Set("X-Remine-Segments-Skipped", strconv.Itoa(stats.SegmentsSkipped))
	w.Header().Set("Content-Type", contentTypes[format])
	_ = report.Write(w, res, format, report.Options{Top: req.Top, Coverage: s.cfg.Coverage != nil})
}

// parseFingerprints decodes hex statement fingerprints.
func parseFingerprints(hexes []string) ([]uint64, error) {
	if len(hexes) == 0 {
		return nil, nil
	}
	fps := make([]uint64, 0, len(hexes))
	for _, h := range hexes {
		v, err := strconv.ParseUint(strings.TrimPrefix(h, "0x"), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad fingerprint %q: %w", h, err)
		}
		fps = append(fps, v)
	}
	return fps, nil
}

// RemineStats describes what one re-mine read from the log.
type RemineStats struct {
	Records         int
	SegmentsScanned int
	SegmentsSkipped int
}

// Remine batch-mines the WAL records whose time lies in [from, to),
// optionally filtered to statements touching only the given relation set
// and/or matching one of the given fingerprints. It builds a throwaway
// miner over a copy of the live access(a) registry, so the result is
// reproducible against batch-mining the same records while the live
// service keeps serving unperturbed.
func (s *Server) Remine(from, to int64, relations []string, fps []uint64) (*core.Result, RemineStats, error) {
	var rst RemineStats
	var recs []qlog.Record
	wst, err := s.wal.ReadWindow(from, to, fps, func(rec qlog.Record, fp uint64) error {
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, rst, err
	}
	rst.Records = wst.Records
	rst.SegmentsScanned = wst.SegmentsScanned
	rst.SegmentsSkipped = wst.SegmentsSkipped

	// A registry copy: the throwaway miner must see the live access(a)
	// state (so distance profiles match the service's) without its own
	// extraction pass mutating it.
	statsCopy := schema.NewStats()
	statsCopy.RestoreSnapshot(s.miner.Stats().Snapshot())
	cfg := s.cfg.Miner
	cfg.Stats = statsCopy
	m := core.NewMiner(cfg)

	if len(relations) == 0 {
		return m.MineRecords(recs), rst, nil
	}

	// Relation-set filter: extract first, keep only areas whose relation
	// set is covered by the requested one, then cluster the survivors.
	want := make(map[string]struct{}, len(relations))
	for _, rel := range relations {
		want[s.canonicalRelationName(rel)] = struct{}{}
	}
	pipe := &qlog.Pipeline{
		Extractor: &extract.Extractor{Schema: cfg.Schema, Stats: statsCopy},
		Workers:   cfg.Workers,
	}
	areaRecs, _ := pipe.Run(recs)
	kept := areaRecs[:0]
	for _, ar := range areaRecs {
		if relationsCovered(ar.Area.Relations, want) {
			kept = append(kept, ar)
		}
	}
	return m.MineAreas(kept), rst, nil
}

// relationsCovered reports whether every relation of an area is in want.
func relationsCovered(rels []string, want map[string]struct{}) bool {
	if len(rels) == 0 {
		return false
	}
	for _, rel := range rels {
		if _, ok := want[rel]; !ok {
			return false
		}
	}
	return true
}

// canonicalRelationName normalises a user-supplied relation name the same
// way extraction does: schema prefixes stripped, capitalisation resolved
// against the schema.
func (s *Server) canonicalRelationName(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if sch := s.cfg.Miner.Schema; sch != nil {
		return sch.CanonicalTable(name)
	}
	return name
}

// FingerprintsFor is a convenience for tests and tooling: the fingerprints
// of the given statements (0 and false for statements that do not lex).
func FingerprintsFor(stmts []string) []uint64 {
	set := make(map[uint64]struct{}, len(stmts))
	for _, sql := range stmts {
		if fp, err := sqlparser.FingerprintOnly(sql); err == nil {
			set[fp] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(set))
	for fp := range set {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
