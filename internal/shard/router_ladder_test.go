package shard

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/skyserver"
)

// The router and the pipeline extract through one ladder, so the router's
// key for every area-bearing record is the relation-set key of the area the
// pipeline extracts.
func TestRouterKeysMatchPipelineAreas(t *testing.T) {
	recs := synthRecords(2000, 5)
	sch := skyserver.Schema()
	want, _ := (&qlog.Pipeline{Extractor: extract.New(sch), NoCache: true}).Run(recs)
	bySeq := make(map[int]qlog.AreaRecord, len(want))
	for _, ar := range want {
		bySeq[ar.Record.Seq] = ar
	}
	r := NewRouter(4, sch, -1)
	checked := 0
	for i := range recs {
		rec := recs[i]
		_, key := r.Route(&rec)
		ar, ok := bySeq[recs[i].Seq]
		if !ok {
			continue
		}
		if want := extract.RelationSetKey(ar.Area.Relations); key != want {
			t.Fatalf("seq %d: router key %q, pipeline area's %q\n  %s", recs[i].Seq, key, want, recs[i].SQL)
		}
		checked++
	}
	if checked < len(recs)/2 {
		t.Fatalf("only %d of %d records carried an area", checked, len(recs))
	}
}
