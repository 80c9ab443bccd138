package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/aggregate"
	"repro/internal/interval"
	"repro/internal/memdb"
)

func queryServer(t *testing.T, verify bool) (*Server, *httptest.Server) {
	t.Helper()
	db := testDB()
	s, err := NewServer(Config{
		Miner:       minerConfig(db),
		QueryDB:     db,
		QueryVerify: verify,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postQuery(t *testing.T, url, contentType, body string) (int, http.Header, queryReply) {
	t.Helper()
	resp, err := http.Post(url+"/query", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	defer resp.Body.Close()
	var reply queryReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("query reply: %v", err)
	}
	return resp.StatusCode, resp.Header, reply
}

func TestQueryEndpoint(t *testing.T) {
	s, ts := queryServer(t, true)
	postNDJSON(t, ts.URL, synthRecords(800, 7))
	if _, err := http.Post(ts.URL+"/flush", "", nil); err != nil {
		t.Fatal(err)
	}

	// Raw-SQL body. The whole-table probe may hit or miss depending on the
	// mined regions; correctness and labelling are what we pin here.
	sql := "SELECT TOP 5 objid FROM Photoz WHERE objid BETWEEN 1237657855534432934 AND 1237666210342830434"
	status, hdr, reply := postQuery(t, ts.URL, "text/plain", sql)
	if status != http.StatusOK || reply.Error != "" {
		t.Fatalf("status %d, error %q", status, reply.Error)
	}
	if got := hdr.Get("X-Cache"); got != "HIT" && got != "MISS" {
		t.Fatalf("X-Cache = %q", got)
	}
	if hdr.Get("X-Cache-Generation") == "" {
		t.Fatal("missing X-Cache-Generation")
	}
	if reply.RowCount != len(reply.Rows) || len(reply.Columns) == 0 {
		t.Fatalf("reply shape: %+v", reply)
	}

	// JSON body form must behave identically.
	body, _ := json.Marshal(map[string]string{"sql": sql})
	status2, _, reply2 := postQuery(t, ts.URL, "application/json", string(body))
	if status2 != http.StatusOK {
		t.Fatalf("json body status %d", status2)
	}
	if a, b := mustJSON(t, reply.Rows), mustJSON(t, reply2.Rows); a != b {
		t.Fatalf("raw vs json body rows differ:\n%s\n%s", a, b)
	}

	// Parse errors surface as 400 with the executor's message.
	status3, _, reply3 := postQuery(t, ts.URL, "text/plain", "DROP TABLE Photoz")
	if status3 != http.StatusBadRequest || reply3.Error == "" {
		t.Fatalf("bad statement: status %d, error %q", status3, reply3.Error)
	}

	// The oracle ran on every hit; none may have failed.
	if m := s.QueryCache().Metrics(); m.VerifyFailed != 0 {
		t.Fatalf("verify failures: %+v", m)
	}

	// Metrics expose the semantic-cache counters.
	_, _, metricsBody := get(t, ts.URL+"/metrics", "")
	var metrics map[string]any
	if err := json.Unmarshal(metricsBody, &metrics); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"semcache_hits", "semcache_misses", "semcache_regions",
		"semcache_generation", "semcache_bytes_served", "semcache_per_region"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
}

func TestQueryUnconfigured(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader("SELECT 1"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReportETag drives the If-None-Match flow across all three content
// types: same generation → 304 with no body, new epoch → fresh body and a
// changed tag, and the tag must differ across formats so a client cache
// never serves a CSV body for a JSON request.
func TestReportETag(t *testing.T) {
	_, ts := queryServer(t, false)
	postNDJSON(t, ts.URL, synthRecords(300, 3))
	if _, err := http.Post(ts.URL+"/flush", "", nil); err != nil {
		t.Fatal(err)
	}

	tags := map[string]string{}
	for _, accept := range []string{"text/plain", "text/csv", "application/json"} {
		status, hdr, body := get(t, ts.URL+"/report", accept)
		if status != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes", accept, status, len(body))
		}
		etag := hdr.Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag", accept)
		}
		tags[accept] = etag

		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/report", nil)
		req.Header.Set("Accept", accept)
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || buf.Len() != 0 {
			t.Fatalf("%s: conditional status %d, %d bytes; want 304 empty", accept, resp.StatusCode, buf.Len())
		}
	}
	if tags["text/plain"] == tags["text/csv"] || tags["text/csv"] == tags["application/json"] {
		t.Fatalf("formats share an ETag: %v", tags)
	}

	// A new epoch must invalidate: the same If-None-Match now gets a body.
	postNDJSON(t, ts.URL, synthRecords(300, 4))
	if _, err := http.Post(ts.URL+"/flush", "", nil); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/report", nil)
	req.Header.Set("If-None-Match", tags["text/plain"])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || buf.Len() == 0 {
		t.Fatalf("post-epoch conditional: status %d, %d bytes; want fresh 200", resp.StatusCode, buf.Len())
	}
	if resp.Header.Get("ETag") == tags["text/plain"] {
		t.Fatal("ETag unchanged across epochs")
	}
}

// TestSemCacheSmoke is the make semcache-smoke gate: mine a 5k-query log,
// prefetch regions, serve the same statements through POST /query with the
// byte-identity oracle on, and require zero oracle failures plus a real hit
// population on both rungs (single-region and HAVING aggregate). It
// exercises the full mine → prefetch → serve → verify loop in one process.
func TestSemCacheSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke gate is slow")
	}
	db := testDB()
	s, err := NewServer(Config{
		Miner:       minerConfig(db),
		QueryDB:     db,
		QueryVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	recs := synthRecords(5000, 99)
	for start := 0; start < len(recs); start += 1000 {
		end := start + 1000
		if end > len(recs) {
			end = len(recs)
		}
		postNDJSON(t, ts.URL, recs[start:end])
	}
	if _, err := http.Post(ts.URL+"/flush", "", nil); err != nil {
		t.Fatal(err)
	}

	opts := memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}
	served := 0
	for _, rec := range recs {
		status, _, reply := postQuery(t, ts.URL, "text/plain", rec.SQL)
		direct, derr := db.ExecuteSQL(rec.SQL, opts)
		if derr != nil {
			if status != http.StatusBadRequest {
				t.Fatalf("direct failed but /query served %q: %d", rec.SQL, status)
			}
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("/query failed for %q: %d %s", rec.SQL, status, reply.Error)
		}
		if reply.RowCount != len(direct.Rows) {
			t.Fatalf("row count mismatch for %q: served %d, direct %d (hit=%v)",
				rec.SQL, reply.RowCount, len(direct.Rows), reply.Cache.Hit)
		}
		served++
	}
	m := s.QueryCache().Metrics()
	if m.VerifyFailed != 0 {
		t.Fatalf("oracle failures: %+v", m)
	}
	if m.Hits == 0 || m.AggHits == 0 {
		t.Fatalf("smoke run produced %d hits, %d on the agg rung; want both > 0", m.Hits, m.AggHits)
	}
	ratio := float64(m.Hits) / float64(m.Hits+m.Misses)
	t.Logf("served=%d hits=%d (agg %d) misses=%d ratio=%.3f regions=%d", served, m.Hits, m.AggHits, m.Misses, ratio, m.Regions)
	if ratio < 0.5 {
		t.Errorf("hit ratio %.3f below the 0.5 acceptance floor", ratio)
	}
}

// TestSemCacheSmokeV2 is the v2 half of the semcache-smoke gate: the cache's
// serving rungs exercised end-to-end over HTTP. Two half-regions tile
// Photoz.objid, so a band probe inside either half must be a single-region
// hit, while a spanning band and a spanning HAVING probe fit no one region
// and must miss ("no-region") with the direct result. The byte-identity
// oracle is on throughout: zero verify failures proves every hit reproduced
// direct execution.
func TestSemCacheSmokeV2(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke gate is slow")
	}
	db := testDB()
	iv, ok := db.ContentInterval("Photoz.objid")
	if !ok {
		t.Fatal("no content interval for Photoz.objid")
	}
	mid := iv.Lo + (iv.Hi-iv.Lo)/2
	w := iv.Hi - iv.Lo
	halves := []*aggregate.Summary{
		semBand(1, interval.Closed(iv.Lo, mid)),
		semBand(2, interval.Interval{Lo: mid, LoOpen: true, Hi: iv.Hi}),
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	band := func(lo, hi float64) string {
		return fmt.Sprintf("SELECT objid FROM Photoz WHERE objid >= %s AND objid <= %s", num(lo), num(hi))
	}

	s, err := NewServer(Config{
		Miner:       minerConfig(db),
		QueryDB:     db,
		QueryVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.QueryCache().Install(1, halves)

	// Single-region bands: the containing half serves each.
	for i, sql := range []string{band(iv.Lo+w/16, mid-w/16), band(mid+w/16, iv.Hi-w/16)} {
		status, hdr, reply := postQuery(t, ts.URL, "text/plain", sql)
		if status != http.StatusOK || hdr.Get("X-Cache") != "HIT" || reply.Cache.Path != "single" || reply.Cache.Region != i+1 {
			t.Fatalf("band probe %d: status %d, X-Cache %q, path %q, region %d (reason %q)",
				i+1, status, hdr.Get("X-Cache"), reply.Cache.Path, reply.Cache.Region, reply.Cache.Reason)
		}
	}

	// Spanning band and spanning aggregate (the HAVING class): no single
	// half contains either, so both miss and answer directly.
	agg := fmt.Sprintf(
		"SELECT objid, COUNT(*), MIN(objid), MAX(objid) FROM Photoz WHERE objid >= %s AND objid <= %s GROUP BY objid HAVING COUNT(*) >= 1",
		num(iv.Lo), num(iv.Hi))
	for _, sql := range []string{band(iv.Lo+w/16, iv.Hi-w/16), agg} {
		status, hdr, reply := postQuery(t, ts.URL, "text/plain", sql)
		if status != http.StatusOK || hdr.Get("X-Cache") != "MISS" || reply.Cache.Reason != "no-region" {
			t.Fatalf("spanning probe %q: status %d, X-Cache %q, path %q (reason %q)",
				sql, status, hdr.Get("X-Cache"), reply.Cache.Path, reply.Cache.Reason)
		}
		if reply.RowCount == 0 || !sameAsDirect(t, db, sql, reply) {
			t.Fatalf("spanning probe %q: reply differs from direct execution (%d rows)", sql, reply.RowCount)
		}
	}
	if m := s.QueryCache().Metrics(); m.VerifyFailed != 0 {
		t.Fatalf("verify failures: %+v", m)
	}

	// /metrics surfaces the resident bytes and the agg rung, and none of the
	// byte budget's keys.
	_, _, metricsBody := get(t, ts.URL+"/metrics", "")
	var metrics map[string]any
	if err := json.Unmarshal(metricsBody, &metrics); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"semcache_bytes_resident", "semcache_agg_hits"} {
		if _, ok := metrics[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	for _, key := range []string{"semcache_budget", "semcache_shadow_regions", "semcache_near_misses",
		"semcache_evicted", "semcache_probation_admits"} {
		if _, ok := metrics[key]; ok {
			t.Errorf("metrics still carries %s", key)
		}
	}
}

// sameAsDirect reports whether a /query reply carries exactly the columns
// and rows that direct execution of sql returns, in the reply's encoding.
func sameAsDirect(t *testing.T, db *memdb.DB, sql string, reply queryReply) bool {
	t.Helper()
	direct, err := db.ExecuteSQL(sql, memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true})
	if err != nil {
		t.Fatalf("direct %q: %v", sql, err)
	}
	var rows [][]any
	for _, row := range direct.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case memdb.Num:
				out[j] = v.Num
			case memdb.Str:
				out[j] = v.Str
			}
		}
		rows = append(rows, out)
	}
	return mustJSON(t, reply.Columns) == mustJSON(t, direct.Columns) &&
		mustJSON(t, reply.Rows) == mustJSON(t, rows)
}

// semBand builds a one-dimension Photoz.objid region summary for the v2
// smoke test.
func semBand(id int, div interval.Interval) *aggregate.Summary {
	box := interval.NewBox()
	box.Set("Photoz.objid", div)
	return &aggregate.Summary{ID: id, Relations: []string{"Photoz"}, Box: box}
}
