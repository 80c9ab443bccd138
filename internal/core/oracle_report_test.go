package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/skyserver"
)

// TestMineRecordsMatchesBruteOracle checks the one clustering engine — the
// substrate every batch mine and every epoch runs — against a reference
// that shares none of its code: brute-force DBSCAN per partition over
// Metric.ProfileDistance. The two must agree on every counter and cluster
// and render byte-identical JSON reports.
func TestMineRecordsMatchesBruteOracle(t *testing.T) {
	recs := core.SynthRecords(1500, 11)
	cfg := core.Config{Schema: skyserver.Schema(), Seed: 11, Eps: 0.06}

	mcfg := cfg
	mcfg.Stats = core.SeededStats()
	got := core.NewMiner(mcfg).MineRecords(recs)

	rcfg := cfg
	rcfg.Stats = core.SeededStats()
	want := core.BruteReference(rcfg, recs)

	if len(want.Clusters) == 0 || want.NoiseQueries == 0 {
		t.Fatalf("degenerate oracle: %d clusters, %d noise queries", len(want.Clusters), want.NoiseQueries)
	}
	core.SameMining(t, want, got)

	render := func(res *core.Result) []byte {
		var buf bytes.Buffer
		if err := report.Write(&buf, res, report.JSON, report.Options{}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if w, g := render(want), render(got); !bytes.Equal(w, g) {
		t.Fatalf("JSON reports differ:\noracle:\n%s\nminer:\n%s", w, g)
	}
}
