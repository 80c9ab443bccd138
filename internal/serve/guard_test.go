package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/report"
)

// panicBackend panics on every Backend method it does not override: the
// embedded interface is nil, so each call dereferences it.
type panicBackend struct {
	Backend
	enqueued int
}

func (*panicBackend) Closed() bool { return false }

func (*panicBackend) StatsJSON() map[string]any { panic("stats exploded") }

func (b *panicBackend) Enqueue(qlog.Record) error {
	b.enqueued++
	return nil
}

func (*panicBackend) Commit(int) error { return nil }

// A panicking handler answers 500 and is counted; the listener keeps
// serving the next request on the same handler set and on others.
func TestGuardRecoversHandlerPanic(t *testing.T) {
	ts := httptest.NewServer(Guard(NewMux(&panicBackend{}, nil, report.Options{})))
	defer ts.Close()
	before := handlerPanics.Value()
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatalf("GET /stats #%d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("GET /stats #%d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// A method the stub leaves unimplemented panics too (nil interface).
	resp, err := http.Post(ts.URL+"/flush", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("POST /flush: status %d, want 500", resp.StatusCode)
	}
	if got := handlerPanics.Value() - before; got != 3 {
		t.Errorf("skyaccess_serve_handler_panics_total moved by %d, want 3", got)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz after panics: status %d, want 200", resp.StatusCode)
	}
	var prom bytes.Buffer
	if err := obs.Default().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "skyaccess_serve_handler_panics_total") {
		t.Error("panic counter missing from the Prometheus exposition")
	}
}

// Every POST body is capped at MaxBodyBytes on both ingest decoders: the
// JSON decoder admits nothing, the NDJSON reader acknowledges the records
// it admitted before the cap and answers 413 either way. A body within the
// cap is unaffected.
func TestGuardBodyLimit(t *testing.T) {
	b := &panicBackend{}
	ts := httptest.NewServer(Guard(NewMux(b, nil, report.Options{})))
	defer ts.Close()
	post := func(ctype string, body []byte) (int, ingestReply) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply ingestReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%s reply: %v", ctype, err)
		}
		return resp.StatusCode, reply
	}
	rec := []byte(`{"seq":1,"time":1,"user":"u","sql":"SELECT 1"}` + "\n")

	jsonBody := append([]byte("["), bytes.Repeat([]byte(" "), MaxBodyBytes)...)
	if code, reply := post("application/json", append(jsonBody, ']')); code != http.StatusRequestEntityTooLarge || reply.Accepted != 0 {
		t.Errorf("oversized JSON: status %d accepted %d, want 413 and 0", code, reply.Accepted)
	}
	nd := append(bytes.Repeat(rec, 3), bytes.Repeat([]byte("\n"), MaxBodyBytes)...)
	if code, reply := post("application/x-ndjson", nd); code != http.StatusRequestEntityTooLarge || reply.Accepted != 3 {
		t.Errorf("oversized NDJSON: status %d accepted %d, want 413 and 3", code, reply.Accepted)
	}
	if code, reply := post("application/x-ndjson", rec); code != http.StatusAccepted || reply.Accepted != 1 {
		t.Errorf("small NDJSON: status %d accepted %d, want 202 and 1", code, reply.Accepted)
	}
	if b.enqueued != 4 {
		t.Errorf("backend admitted %d records, want 4", b.enqueued)
	}
}
