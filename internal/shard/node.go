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

// Node is one shard as the coordinator sees it. Both implementations carry
// the same admission semantics as serve.Server.IngestRecords: Ingest accepts
// a prefix of recs in order and returns how many made it plus the error that
// stopped it (nil when all did) — backpressure errors mean "retry the tail",
// transport errors mean "the shard may be down".
type Node interface {
	// Name identifies the node in logs, /shard/status and metrics.
	Name() string
	// Ingest forwards records in order; returns the accepted prefix length.
	Ingest(recs []qlog.Record) (int, error)
	// Flush blocks until everything accepted is mined and an epoch has run.
	Flush() error
	// Result returns the latest epoch's result and generation (nil, 0
	// before the first epoch).
	Result() (*core.Result, int64, error)
	// Stats returns the shard's cumulative pipeline statistics.
	Stats() (*qlog.Stats, error)
	// Telemetry returns the shard's ingest/epoch counters.
	Telemetry() (serve.Telemetry, error)
	// Traffic returns the shard's traffic-mining bundle: per-class results,
	// drift events and the tracked interface table. A shard running without
	// traffic mining answers an Enabled=false bundle, never an error.
	Traffic() (*WireTraffic, error)
	// Healthy probes liveness (cheap; called by the coordinator's health
	// loop).
	Healthy() bool
	// Close shuts the node down (LocalNode drains and snapshots the
	// embedded server; HTTPNode just drops the connection — remote shards
	// own their lifecycle).
	Close() error
}

// retryableIngest reports whether an Ingest error is backpressure — the
// shard is alive but throttling (queue full or mining-lag bound) — rather
// than a transport failure.
func retryableIngest(err error) bool {
	return err == serve.ErrQueueFull || err == serve.ErrMiningLag
}

// LocalNode is an in-process shard: a serve.Server reached by function call.
// The in-process topology runs N of these behind one router, sharing the
// stats registry and template cache, which is what makes the merged report
// byte-identical to a single batch mine (see TestCoordinatorMatchesBatch).
type LocalNode struct {
	name string
	srv  *serve.Server
}

// NewLocalNode wraps a serve.Server as a shard node.
func NewLocalNode(name string, srv *serve.Server) *LocalNode {
	return &LocalNode{name: name, srv: srv}
}

// Server exposes the embedded server (the in-process topology serves its
// /shard endpoints from it directly in tests).
func (n *LocalNode) Server() *serve.Server { return n.srv }

func (n *LocalNode) Name() string { return n.name }

func (n *LocalNode) Ingest(recs []qlog.Record) (int, error) {
	return n.srv.IngestRecords(recs)
}

func (n *LocalNode) Flush() error {
	n.srv.Flush()
	return nil
}

func (n *LocalNode) Result() (*core.Result, int64, error) {
	res, gen, _ := n.srv.Latest("")
	return res, gen, nil
}

func (n *LocalNode) Stats() (*qlog.Stats, error) {
	return n.srv.StatsSnapshot(), nil
}

func (n *LocalNode) Telemetry() (serve.Telemetry, error) {
	return n.srv.Telemetry(), nil
}

func (n *LocalNode) Traffic() (*WireTraffic, error) {
	return encodeTraffic(n.srv), nil
}

func (n *LocalNode) Healthy() bool { return true }

func (n *LocalNode) Close() error { return n.srv.Close() }

// HTTPNode is a remote shard: a skyserved -role shard process reached over
// its HTTP surface (POST /ingest NDJSON, POST /flush, GET /shard/result,
// GET /healthz).
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
// down.
func (n *HTTPNode) Ingest(recs []qlog.Record) (int, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return 0, err
		}
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
	Result    *WireResult     `json:"result,omitempty"`
	Stats     *qlog.Stats     `json:"stats,omitempty"`
	Telemetry serve.Telemetry `json:"telemetry"`
}

func (n *HTTPNode) fetchStatus() (*shardStatusBody, error) {
	resp, err := n.client.Get(n.baseURL + "/shard/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard %s: result: HTTP %d", n.name, resp.StatusCode)
	}
	var body shardStatusBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return nil, err
	}
	return &body, nil
}

func (n *HTTPNode) Result() (*core.Result, int64, error) {
	body, err := n.fetchStatus()
	if err != nil {
		return nil, 0, err
	}
	if body.Result == nil {
		return nil, 0, nil
	}
	return DecodeResult(body.Result), body.Result.Generation, nil
}

func (n *HTTPNode) Stats() (*qlog.Stats, error) {
	body, err := n.fetchStatus()
	if err != nil {
		return nil, err
	}
	return body.Stats, nil
}

// Telemetry hits the counters-only endpoint: the coordinator's quiesce loop
// polls it every couple of milliseconds, so it must not drag the full epoch
// result over the wire each time.
func (n *HTTPNode) Telemetry() (serve.Telemetry, error) {
	resp, err := n.client.Get(n.baseURL + "/shard/telemetry")
	if err != nil {
		return serve.Telemetry{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Telemetry{}, fmt.Errorf("shard %s: telemetry: HTTP %d", n.name, resp.StatusCode)
	}
	var tel serve.Telemetry
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&tel); err != nil {
		return serve.Telemetry{}, err
	}
	return tel, nil
}

// Traffic fetches the shard's traffic bundle. Fetched only at Flush (and
// SeedMerge), so the payload size — the full interface table rides along —
// is off the quiesce-poll path.
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

func (n *HTTPNode) Close() error { return nil }

// ResultHandler wraps a shard server's HTTP surface with the extra endpoints
// the coordinator needs: GET /shard/result (the latest epoch result in wire
// form plus pipeline stats and telemetry in a single round trip), GET
// /shard/telemetry (counters only — cheap enough for the coordinator's
// quiesce poll) and GET /shard/traffic (the traffic-mining bundle).
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
			Result:    EncodeResult(res, gen),
			Stats:     s.StatsSnapshot(),
			Telemetry: s.Telemetry(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
	mux.HandleFunc("/shard/telemetry", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Telemetry())
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
