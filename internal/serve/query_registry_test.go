package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// wideQueries reach far outside every column's seeded content: were /query
// to observe their constants, access(a) — and with it every distance the
// next epoch computes — would widen.
var wideQueries = []string{
	"SELECT * FROM zooSpec WHERE ra BETWEEN -100000 AND 100000 AND dec BETWEEN -9000 AND 9000",
	"SELECT objid FROM PhotoObjAll WHERE ra BETWEEN -100000 AND 100000 AND dec BETWEEN -9000 AND 9000",
	"SELECT * FROM SpecObjAll WHERE z BETWEEN -5000 AND 5000",
	"SELECT objid FROM Photoz WHERE z BETWEEN -5000 AND 5000",
	"SELECT objid FROM PhotoObjAll WHERE u BETWEEN -5000 AND 5000 AND r < 9000",
}

// POST /query reads the mined regions; it must never write the registry the
// miner grows access(a) in (§5.3), so the mined report stays a function of
// the ingested records alone. Queries run between two epochs; the second
// epoch's /report must equal the batch miner's over the same records, in
// every format, and the registry generation must not move across the
// queries.
func TestQueryLeavesReportUnchanged(t *testing.T) {
	db := testDB()
	recs := synthRecords(1200, 42)
	batch := core.NewMiner(minerConfig(db)).MineRecords(recs)
	batch.AttachCoverage(db)

	s, err := NewServer(Config{Miner: minerConfig(db), Coverage: db, QueryDB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	flush := func() {
		t.Helper()
		resp, err := http.Post(ts.URL+"/flush", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("flush status %d", resp.StatusCode)
		}
	}

	half := len(recs) / 2
	postNDJSON(t, ts.URL, recs[:half])
	flush()
	if len(s.QueryCache().Regions()) == 0 {
		t.Fatal("first epoch installed no regions: the queries would never reach extraction")
	}
	gen := s.miner.Stats().Generation()
	queries := append([]string(nil), wideQueries...)
	for _, r := range synthRecords(400, 9) {
		queries = append(queries, r.SQL)
	}
	for _, q := range queries {
		postQuery(t, ts.URL, "text/plain", q)
	}
	if m := s.QueryCache().Metrics(); m.Hits+m.Misses != int64(len(queries)) {
		t.Fatalf("cache answered %d of %d queries", m.Hits+m.Misses, len(queries))
	}
	if got := s.miner.Stats().Generation(); got != gen {
		t.Fatalf("registry generation %d → %d across %d /query calls", gen, got, len(queries))
	}
	postNDJSON(t, ts.URL, recs[half:])
	flush()

	for _, f := range []report.Format{report.Text, report.CSV, report.JSON} {
		var want bytes.Buffer
		if err := report.Write(&want, batch, f, report.Options{Coverage: true}); err != nil {
			t.Fatal(err)
		}
		code, _, got := get(t, ts.URL+"/report?format="+string(f), "")
		if code != http.StatusOK {
			t.Fatalf("%s report status %d", f, code)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s report differs from batch miner (%d vs %d bytes)", f, len(got), want.Len())
		}
	}
}
