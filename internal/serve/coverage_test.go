package serve

import (
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/traffic"
)

// The coverage memo's oracle. A traffic-mining server takes a mixed log in
// five flushes; after each, every cluster of the global and class results
// must carry exactly the coverage a fresh ComputeCoverage gives it, and the
// memo must hold at most the epoch's cluster count. Over the run some
// cluster must have been carried over and some cluster's box must have
// moved (same relations and box columns, new bounds), so both the hit and
// the miss side were exercised. make traffic-smoke runs it under -race.
func TestCoverageMemoMatchesFresh(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db), Coverage: db, BatchSize: 64, Traffic: &traffic.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := mixedRecords(2500, 9)
	var prev []*aggregate.Summary
	carried, moved := 0, 0
	for lo := 0; lo < len(recs); lo += 500 {
		postNDJSON(t, ts.URL, recs[lo:min(lo+500, len(recs))])
		flushServer(t, ts.URL)

		var clusters []*aggregate.Summary
		for _, cls := range append([]string{""}, traffic.Classes...) {
			res, _, _ := s.Latest(cls)
			if res == nil {
				t.Fatalf("no result for class %q", cls)
			}
			clusters = append(clusters, res.Clusters...)
		}
		for _, c := range clusters {
			fresh := *c
			fresh.ComputeCoverage(db)
			if c.AreaCoverage != fresh.AreaCoverage || c.ObjectCoverage != fresh.ObjectCoverage {
				t.Fatalf("flush at %d: cluster %s carries coverage %v/%v, fresh %v/%v", lo, c.Expr(),
					c.AreaCoverage, c.ObjectCoverage, fresh.AreaCoverage, fresh.ObjectCoverage)
			}
		}
		s.epochMu.Lock()
		held := len(s.cov.prev)
		s.epochMu.Unlock()
		if held > len(clusters) {
			t.Fatalf("flush at %d: memo holds %d entries for %d clusters", lo, held, len(clusters))
		}

		keys := make(map[string]bool, len(prev))
		for _, c := range prev {
			keys[c.CoverageKey()] = true
		}
		for _, c := range clusters {
			if keys[c.CoverageKey()] {
				carried++
				continue
			}
			for _, p := range prev {
				if slices.Equal(p.Relations, c.Relations) && slices.Equal(p.Box.Dims(), c.Box.Dims()) &&
					p.Box.String() != c.Box.String() {
					moved++
					break
				}
			}
		}
		prev = clusters
	}
	t.Logf("%d clusters carried over, %d moved", carried, moved)
	if carried == 0 || moved == 0 {
		t.Fatalf("%d clusters carried over and %d moved: the memo was not exercised on both sides", carried, moved)
	}
}
