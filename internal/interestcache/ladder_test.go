package interestcache

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/skyserver"
)

// /query and ingest extract through one ladder: every statement /query
// admits as a safe shape gets the area the pipeline extracts for it — the
// same Key when lookupArea serves the area, and otherwise the miss reason
// the pipeline's outcome implies. The two run on separate caches, so each
// warms its own templates in its own order.
func TestLookupAreaMatchesPipeline(t *testing.T) {
	recs := make([]qlog.Record, 0, 2000)
	for _, e := range skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 2000, Seed: 3}) {
		recs = append(recs, qlog.Record{Seq: e.Seq, SQL: e.SQL})
	}
	sch := skyserver.Schema()
	areas, _ := (&qlog.Pipeline{Extractor: extract.New(sch), Cache: &extract.TemplateCache{}}).Run(recs)
	bySeq := make(map[int]*extract.AccessArea, len(areas))
	for _, ar := range areas {
		if ar.Key != ar.Area.Key() {
			t.Fatalf("seq %d: pipeline key %q for an area keyed %q", ar.Record.Seq, ar.Key, ar.Area.Key())
		}
		bySeq[ar.Record.Seq] = ar.Area
	}
	c := New(Config{Extractor: extract.New(sch), Templates: &extract.TemplateCache{}})
	served := 0
	for _, rec := range recs {
		area, _, reason := c.lookupArea(rec.SQL)
		switch reason {
		case "fingerprint", "parse", "shape", "agg":
			continue // not admitted as a safe shape
		}
		want, ok := bySeq[rec.Seq]
		var wantReason string
		switch {
		case !ok:
			wantReason = "uncacheable"
		case !want.Exact || want.Truncated:
			wantReason = "inexact"
		case want.IsEmpty():
			wantReason = "empty-area"
		case len(want.Relations) == 0:
			wantReason = "inexact"
		}
		if reason != wantReason {
			t.Fatalf("seq %d: lookupArea reason %q, pipeline outcome implies %q\n  %s", rec.Seq, reason, wantReason, rec.SQL)
		}
		if reason == "" {
			if area.Key() != want.Key() {
				t.Fatalf("seq %d: lookupArea key %q, pipeline %q\n  %s", rec.Seq, area.Key(), want.Key(), rec.SQL)
			}
			served++
		}
	}
	if served < len(recs)/2 {
		t.Fatalf("only %d of %d statements were served an area", served, len(recs))
	}
}
