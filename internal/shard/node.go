package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/qlog"
	"repro/internal/serve"
)

// refusedError is a shard's 400 answer to a forwarded batch: the record
// after the accepted prefix is one the shard will never admit, so sending
// it again would be refused again.
type refusedError struct{ msg string }

func (e *refusedError) Error() string { return e.msg }

// HTTPNode is one shard as the coordinator sees it: a skyserved -role shard
// process reached over its HTTP surface (POST /ingest NDJSON, POST /flush,
// GET /shard/result, /shard/traffic and /healthz).
// Ingest carries the admission semantics of serve.Server.IngestRecords: it
// accepts a prefix of recs in order and returns how many made it plus the
// error that stopped it (nil when all did). Backpressure errors mean "retry
// the tail", a refusedError "drop the next record", and any other error "the
// shard may be down".
type HTTPNode struct {
	name    string
	baseURL string
	client  *http.Client
}

// NewHTTPNode builds a node for the shard server at baseURL. A bare
// host:port (the -peers form) gets an implicit http:// scheme; a trailing
// slash is stripped. A nil client gets a 10s-timeout default.
func NewHTTPNode(name, baseURL string, client *http.Client) *HTTPNode {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return &HTTPNode{name: name, baseURL: baseURL, client: client}
}

func (n *HTTPNode) Name() string { return n.name }

// Ingest posts recs as one NDJSON body. The shard's reply carries the
// accepted prefix length; a 429 maps to the matching backpressure sentinel
// so the coordinator's sender retries the tail instead of marking the shard
// down, and a 400 to a refusedError.
func (n *HTTPNode) Ingest(recs []qlog.Record) (int, error) {
	var buf bytes.Buffer
	if err := qlog.WriteJSONL(&buf, recs); err != nil {
		return 0, err
	}
	resp, err := n.client.Post(n.baseURL+"/ingest", "application/x-ndjson", &buf)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var reply struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&reply); err != nil {
		return 0, fmt.Errorf("shard %s: decoding ingest reply: %w", n.name, err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		return reply.Accepted, nil
	case http.StatusTooManyRequests:
		return reply.Accepted, serve.ErrQueueFull
	case http.StatusServiceUnavailable:
		return reply.Accepted, serve.ErrClosed
	case http.StatusBadRequest:
		return reply.Accepted, &refusedError{fmt.Sprintf("shard %s: ingest refused: %s", n.name, reply.Error)}
	default:
		return reply.Accepted, fmt.Errorf("shard %s: ingest: HTTP %d: %s", n.name, resp.StatusCode, reply.Error)
	}
}

func (n *HTTPNode) Flush() error {
	resp, err := n.client.Post(n.baseURL+"/flush", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard %s: flush: HTTP %d", n.name, resp.StatusCode)
	}
	return nil
}

// shardStatusBody is the GET /shard/result payload (served by
// ResultHandler on the shard side).
type shardStatusBody struct {
	Result *WireResult `json:"result,omitempty"`
	Stats  *qlog.Stats `json:"stats,omitempty"`
}

// Result fetches the shard's latest epoch result (nil before its first
// epoch) and its cumulative pipeline statistics in one round trip.
func (n *HTTPNode) Result() (*core.Result, *qlog.Stats, error) {
	resp, err := n.client.Get(n.baseURL + "/shard/result")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("shard %s: result: HTTP %d", n.name, resp.StatusCode)
	}
	var body shardStatusBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return nil, nil, err
	}
	if body.Result == nil {
		return nil, body.Stats, nil
	}
	return DecodeResult(body.Result), body.Stats, nil
}

// Traffic fetches the shard's traffic bundle (the full interface table
// rides along), only at Flush and SeedMerge.
func (n *HTTPNode) Traffic() (*WireTraffic, error) {
	resp, err := n.client.Get(n.baseURL + "/shard/traffic")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %s: traffic: HTTP %d", n.name, resp.StatusCode)
	}
	var wt WireTraffic
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&wt); err != nil {
		return nil, err
	}
	return &wt, nil
}

func (n *HTTPNode) Healthy() bool {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.baseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return resp.StatusCode == http.StatusOK
}

// ResultHandler wraps a shard server's HTTP surface with the extra endpoints
// the coordinator needs: GET /shard/result (the latest epoch result in wire
// form plus pipeline stats in a single round trip) and GET /shard/traffic
// (the traffic-mining bundle).
// Everything else falls through to the server's own handler.
func ResultHandler(s *serve.Server) http.Handler {
	base := s.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", base)
	mux.HandleFunc("/shard/result", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		res, gen, _ := s.Latest("")
		body := shardStatusBody{
			Result: EncodeResult(res, gen),
			Stats:  s.StatsSnapshot(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
	mux.HandleFunc("/shard/traffic", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(encodeTraffic(s))
	})
	return serve.Guard(mux)
}
