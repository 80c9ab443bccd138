package shard

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// formatContentType is the Content-Type each report format is served with.
func formatContentType(f report.Format) string {
	return map[report.Format]string{
		report.Text: "text/plain; charset=utf-8",
		report.CSV:  "text/csv",
		report.JSON: "application/json",
	}[f]
}

// One HTTP contract for both topologies: the same request sent to a single
// serve.Server and to a coordinator over HTTP shards must get the same
// status code, because both answer through serve's one handler set.
func TestTopologyParity(t *testing.T) {
	db := testDB()
	recs := taggedRecords(400, 5)

	// urls[traffic] = {single node, coordinator}, both ingested and flushed.
	urls := map[bool][2]string{}
	for _, tr := range []bool{false, true} {
		cfg := serve.Config{
			Miner:      core.Config{Schema: skyserver.Schema(), Seed: 42, Stats: seededStats(db)},
			BatchSize:  64,
			EpochAreas: 256,
		}
		var coord *Coordinator
		if tr {
			cfg.Traffic = &traffic.Config{}
			coord = newTrafficCluster(t, 2, db)
		} else {
			coord = newHTTPCluster(t, db, 0, 0)
		}
		defer coord.Close()
		node, err := serve.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		var pair [2]string
		for i, h := range []http.Handler{node.Handler(), coord.Handler()} {
			ts := httptest.NewServer(h)
			defer ts.Close()
			postUntilAccepted(t, ts.URL, recs)
			mustFlush(t, ts.URL)
			pair[i] = ts.URL
		}
		urls[tr] = pair
	}

	cases := []struct {
		traffic bool
		method  string
		path    string
		body    string
		inm     bool // send the ETag a plain GET of path returned as If-None-Match
		want    int
	}{
		{method: "GET", path: "/ingest", want: http.StatusMethodNotAllowed},
		{method: "GET", path: "/flush", want: http.StatusMethodNotAllowed},
		{method: "POST", path: "/ingest", body: "{not json", want: http.StatusBadRequest},
		{method: "POST", path: "/ingest", body: "42", want: http.StatusBadRequest},
		// Both surfaces sit behind serve.Guard's body limit.
		{method: "POST", path: "/ingest", body: "[" + strings.Repeat(" ", serve.MaxBodyBytes) + "]", want: http.StatusRequestEntityTooLarge},
		{method: "GET", path: "/report", want: http.StatusOK},
		{method: "GET", path: "/report?top=-1", want: http.StatusBadRequest},
		{method: "GET", path: "/report?top=x", want: http.StatusBadRequest},
		{method: "GET", path: "/report?format=xml", want: http.StatusBadRequest},
		{method: "GET", path: "/report", inm: true, want: http.StatusNotModified},
		{method: "GET", path: "/report?format=csv&top=2", inm: true, want: http.StatusNotModified},
		{method: "GET", path: "/report?class=bot", want: http.StatusConflict},
		{method: "GET", path: "/drift", want: http.StatusConflict},
		{method: "GET", path: "/interfaces", want: http.StatusConflict},
		{traffic: true, method: "GET", path: "/report?class=robot", want: http.StatusBadRequest},
		{traffic: true, method: "GET", path: "/drift?class=robot", want: http.StatusBadRequest},
		{traffic: true, method: "GET", path: "/interfaces?top=0", want: http.StatusBadRequest},
		{traffic: true, method: "GET", path: "/interfaces?top=3", want: http.StatusOK},
		{traffic: true, method: "GET", path: "/drift?class=human", want: http.StatusOK},
		{traffic: true, method: "GET", path: "/report?class=bot", want: http.StatusOK},
		{traffic: true, method: "GET", path: "/report?class=bot&format=json", inm: true, want: http.StatusNotModified},
		{method: "GET", path: "/stats", want: http.StatusOK},
		{method: "GET", path: "/metrics", want: http.StatusOK},
		{method: "GET", path: "/metrics?format=prom", want: http.StatusOK},
		{method: "GET", path: "/debug/slowlog", want: http.StatusOK},
		{method: "GET", path: "/debug/slowlog?k=-1", want: http.StatusBadRequest},
		{method: "GET", path: "/healthz", want: http.StatusOK},
	}
	do := func(base, method, path, body string, inm bool) (int, http.Header, string) {
		t.Helper()
		etag := ""
		if inm {
			_, hdr, _ := get(t, base+path)
			if etag = hdr.Get("ETag"); etag == "" {
				t.Fatalf("GET %s: no ETag", path)
			}
		}
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, string(b)
	}
	for _, c := range cases {
		pair := urls[c.traffic]
		node, _, _ := do(pair[0], c.method, c.path, c.body, c.inm)
		coord, _, _ := do(pair[1], c.method, c.path, c.body, c.inm)
		if node != c.want || coord != c.want {
			t.Errorf("%s %s (traffic %v, If-None-Match %v): node %d, coordinator %d, want %d",
				c.method, c.path, c.traffic, c.inm, node, coord, c.want)
		}
	}

	// The coordinator renders the Prometheus exposition, not the JSON map.
	code, hdr, body := do(urls[false][1], "GET", "/metrics?format=prom", "", false)
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain; version=0.0.4") ||
		strings.HasPrefix(body, "{") || !strings.Contains(body, "# TYPE") {
		t.Errorf("coordinator /metrics?format=prom: status %d, content-type %q, body %.80q",
			code, hdr.Get("Content-Type"), body)
	}
}
