package shard

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/skyserver"
)

// The router and the pipeline extract through one ladder, so the router's
// key for every area-bearing record is the relation-set key of the area the
// pipeline extracts. With a private router cache the two ladders run
// independently; with a shared one (the in-process topology) the pipeline
// replays what the router stored, and must still match an uncached run.
func TestRouterKeysMatchPipelineAreas(t *testing.T) {
	recs := synthRecords(2000, 5)
	sch := skyserver.Schema()
	want, _ := (&qlog.Pipeline{Extractor: extract.New(sch), NoCache: true}).Run(recs)
	bySeq := make(map[int]qlog.AreaRecord, len(want))
	for _, ar := range want {
		bySeq[ar.Record.Seq] = ar
	}
	for _, shared := range []bool{false, true} {
		var cache *extract.TemplateCache
		if shared {
			cache = &extract.TemplateCache{}
		}
		r := NewRouter(4, sch, cache, -1)
		routed := make([]qlog.Record, len(recs))
		checked := 0
		for i := range recs {
			routed[i] = recs[i]
			_, key := r.Route(&routed[i])
			ar, ok := bySeq[recs[i].Seq]
			if !ok {
				continue
			}
			if want := extract.RelationSetKey(ar.Area.Relations); key != want {
				t.Fatalf("shared=%v seq %d: router key %q, pipeline area's %q\n  %s", shared, recs[i].Seq, key, want, recs[i].SQL)
			}
			checked++
		}
		if checked < len(recs)/2 {
			t.Fatalf("shared=%v: only %d of %d records carried an area", shared, checked, len(recs))
		}
		if !shared {
			continue
		}
		got, _ := (&qlog.Pipeline{Extractor: extract.New(sch), Cache: r.Cache()}).Run(routed)
		if len(got) != len(want) {
			t.Fatalf("pipeline behind the router extracted %d areas, uncached %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Record.Seq != want[i].Record.Seq || got[i].Key != want[i].Key {
				t.Fatalf("seq %d: key %q behind the router, %q uncached", want[i].Record.Seq, got[i].Key, want[i].Key)
			}
		}
	}
}
