// Command skyserved runs the online access-area mining service: it ingests
// query-log records over HTTP, extracts access areas through the streaming
// pipeline with a warm template cache, re-clusters them in epochs, and
// serves live Table-1-style reports. Every epoch clusters exactly, through
// the same engine as the batch miner: it rescans only the eps-neighbourhoods
// of new areas and of areas whose access(a) columns moved.
//
// Usage:
//
//	skyserved [-addr :8080] [-eps 0.06] [-minpts 8] [-snapshot state.json]
//	          [-wal-dir wal [-wal-segment-bytes N] [-wal-window N]]
//	          [-traffic [-traffic-overrides user=class,...]]
//	          [-debug-addr :6060] [-shards N] [-role coordinator|shard -peers ...]
//
// -wal-segment-bytes and -wal-window need -wal-dir, and -traffic-overrides
// needs -traffic: skyserved exits 1 rather than ignore them. The report row
// cap is per request (/report?top=N), and GOMAXPROCS sets the extraction
// and clustering parallelism.
//
// Endpoints (shared by every topology — one handler set in internal/serve):
//
//	POST /ingest    JSON array, object, or NDJSON stream of records
//	POST /flush     drain the queue and re-cluster now
//	GET  /report    latest clustering (?format=text|csv|json, ?top=N,
//	                ETag/If-None-Match; with -traffic, ?class=bot|human|admin
//	                serves one traffic class's slice)
//	GET  /drift     per-class interest-drift event log (-traffic)
//	GET  /interfaces  top-K mined query interfaces (-traffic, ?top=N)
//	GET  /stats     cumulative pipeline statistics
//	GET  /metrics   ingest/cache/epoch/semantic-cache counters
//	                (?format=prom for Prometheus exposition)
//	GET  /debug/slowlog  top-K slowest statements by fingerprint
//	GET  /healthz   readiness
//
// Single node only (standalone or -role shard), because they need the
// node's own database, WAL or snapshot:
//
//	POST /snapshot  persist state now
//	POST /query     execute a SELECT via the semantic result cache
//	POST /remine    mine a historical [from,to) record-time window from the
//	                WAL (optional relation/fingerprint filters; -wal-dir)
//
// Topologies (one binary, three roles):
//
//	-shards N       in-process sharding: N shard miners behind one
//	                relation-set router and merged /report, same process
//	-role shard     one shard node of a multi-node cluster (adds
//	                GET /shard/result, /shard/telemetry and /shard/traffic
//	                for the coordinator)
//	-role coordinator -peers http://h1:8081,http://h2:8081
//	                routes /ingest to the peer shards
//
// Both sharded topologies run the same coordinator: the shared endpoints
// plus GET /shard/status (per-shard liveness and delivery state); /report
// adds X-Stale-Shards and X-Merge-Exact. -peers needs -role coordinator,
// -shards cannot combine with -role, and -autoeps is refused in every
// sharded topology (merge exactness needs one fixed eps on every shard).
//
// With -debug-addr a second listener serves net/http/pprof under
// /debug/pprof/ plus the same /metrics and /debug/slowlog views.
//
// Drive it with loggen:
//
//	skyserved -addr :8080 &
//	loggen -n 20000 -replay -rate 2000 -conns 4 -url http://localhost:8080/ingest
//	curl -s -X POST http://localhost:8080/flush
//	curl -s http://localhost:8080/report
//
// After the first epoch, POST /query answers statements from the mined
// interest regions when containment proves it sound (X-Cache: HIT), falling
// back to direct execution otherwise:
//
//	curl -s -X POST --data 'SELECT objid FROM Photoz WHERE objid BETWEEN 1 AND 9' \
//	    http://localhost:8080/query
//
// On SIGINT/SIGTERM the server drains in-flight extraction, runs a final
// epoch and (with -snapshot) persists state for a replay-free restart; the
// in-process shard topology writes one snapshot per shard (state.0.json,
// state.1.json, ...) plus the router assignment (state.json.router).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// newHTTPServer applies the shared listener hardening: a slowloris client
// cannot hold a connection open with a dribbling header, and idle keep-alive
// connections are reaped.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// shardSnapshotPath derives shard i's snapshot path from the base by
// inserting the index before the extension: state.json → state.2.json.
func shardSnapshotPath(base string, i int) string {
	if base == "" {
		return ""
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "." + strconv.Itoa(i) + ext
}

// shardWALDir derives shard i's WAL directory from the base: each
// in-process shard owns its own log (wal → wal/shard-2).
func shardWALDir(base string, i int) string {
	if base == "" {
		return ""
	}
	return filepath.Join(base, "shard-"+strconv.Itoa(i))
}

// validateTopology refuses flag combinations that would start a topology
// other than the one asked for, or void the coordinator's exactness claim.
func validateTopology(shards int, role, peers string, autoEps bool) error {
	switch role {
	case "", "shard", "coordinator":
	default:
		return fmt.Errorf("unknown -role %q (want coordinator or shard)", role)
	}
	switch {
	case role == "coordinator" && peers == "":
		return errors.New("-role coordinator needs -peers")
	case role != "coordinator" && peers != "":
		return errors.New("-peers is read only by -role coordinator")
	case role != "" && shards > 1:
		return fmt.Errorf("-shards starts an in-process coordinator; it cannot combine with -role %s", role)
	case autoEps && (shards > 1 || role != ""):
		// A shard choosing its own eps voids X-Merge-Exact.
		return errors.New("-autoeps is incompatible with sharding: merge exactness needs one fixed eps on every shard")
	}
	return nil
}

// validateSubsystems refuses flags that configure a subsystem left off:
// they would be accepted and never read.
func validateSubsystems(trafficOn bool, trafficOverrides, walDir string, walSegBytes, walWindow int64) error {
	switch {
	case trafficOverrides != "" && !trafficOn:
		return errors.New("-traffic-overrides is read only with -traffic")
	case walSegBytes != 0 && walDir == "":
		return errors.New("-wal-segment-bytes is read only with -wal-dir")
	case walWindow != 0 && walDir == "":
		return errors.New("-wal-window is read only with -wal-dir")
	}
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	eps := flag.Float64("eps", 0.06, "DBSCAN eps")
	autoEps := flag.Bool("autoeps", false, "derive eps from the k-distance knee each epoch")
	minPts := flag.Int("minpts", 8, "DBSCAN minPts (weighted by query multiplicity)")
	mode := flag.String("mode", "endpoint", "d_pred mode: endpoint or literal")
	seed := flag.Int64("seed", 42, "sampling seed")
	rows := flag.Int("rows", 2000, "synthetic database rows per table (access(a) seeding + coverage)")
	queue := flag.Int("queue", 4096, "ingest queue capacity (full queue answers 429)")
	batch := flag.Int("batch", 256, "max records per pipeline batch")
	epochAreas := flag.Int("epoch-areas", 512, "new distinct areas that trigger a re-clustering epoch")
	epochInterval := flag.Duration("epoch-interval", 15*time.Second, "re-cluster on this timer when new areas are pending (0 = off)")
	snapshot := flag.String("snapshot", "", "snapshot path (restored on start, written on shutdown; empty = none); the file is binary, and a JSON snapshot of an earlier build is still read")
	walDir := flag.String("wal-dir", "", "durable ingest WAL directory: /ingest acks only after group-commit fsync, restart replays the tail past the snapshot, POST /remine mines historical windows (empty = off; in-process shards get wal-dir/shard-N each)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (0 = 8 MiB default)")
	walWindow := flag.Int64("wal-window", 0, "also rotate WAL segments every N logical seconds of record time, for finer /remine segment skipping (0 = size-only)")
	queryVerify := flag.Bool("query-verify", false, "check every cache-served /query result against direct execution (oracle; slow)")
	cacheBudget := flag.Int64("cache-budget", 0, "semantic-cache resident-bytes budget: regions admitted best-heat-first, coldest evicted under pressure (0 = unlimited)")
	drain := flag.Duration("drain", time.Minute, "graceful-shutdown drain budget")
	debugAddr := flag.String("debug-addr", "", "debug listener for pprof/metrics/slowlog (empty = off)")
	shards := flag.Int("shards", 1, "in-process shard miners behind one router (1 = unsharded)")
	role := flag.String("role", "", "multi-node role: coordinator or shard (empty = standalone)")
	peers := flag.String("peers", "", "comma-separated shard base URLs (coordinator role)")
	trafficOn := flag.Bool("traffic", false, "classify ingest into bot/human/admin and mine per class: adds /report?class=, /drift and /interfaces (a coordinator assumes its shard peers also run -traffic)")
	trafficOverrides := flag.String("traffic-overrides", "", "comma-separated user=class pins for known crawlers and admin accounts, e.g. sdssbot=bot,dba=admin")
	flag.Parse()

	dmode, err := distance.ParseMode(*mode)
	if err == nil {
		err = validateTopology(*shards, *role, *peers, *autoEps)
	}
	if err == nil {
		err = validateSubsystems(*trafficOn, *trafficOverrides, *walDir, *walSegBytes, *walWindow)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "skyserved: %v\n", err)
		os.Exit(1)
	}

	var trafficCfg *traffic.Config
	if *trafficOn {
		trafficCfg = &traffic.Config{}
		if *trafficOverrides != "" {
			trafficCfg.Overrides = make(map[string]string)
			for _, pair := range strings.Split(*trafficOverrides, ",") {
				user, cls, ok := strings.Cut(strings.TrimSpace(pair), "=")
				if !ok || user == "" || !traffic.ValidClass(cls) {
					fmt.Fprintf(os.Stderr, "skyserved: bad -traffic-overrides entry %q (want user=bot|human|admin)\n", pair)
					os.Exit(1)
				}
				trafficCfg.Overrides[user] = cls
			}
		}
	}

	minerCfg := func(stats *schema.Stats) core.Config {
		return core.Config{
			Schema: skyserver.Schema(), Stats: stats,
			Eps: *eps, MinPts: *minPts, AutoEps: *autoEps,
			Mode: dmode, Seed: *seed,
		}
	}

	// What to serve, and how to stop it, by topology. Every topology builds
	// the synthetic database: it seeds access(a), backs /query and supplies
	// coverage for the (merged) report.
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: *rows, Seed: 1})
	var handler http.Handler
	var registry *obs.Registry
	var shutdown func(context.Context) error

	if *role == "coordinator" || *shards > 1 {
		// One coordinator for both sharded topologies; only the node list
		// differs. -role coordinator routes to remote shard processes (no
		// local miner); -shards N embeds N shard servers that share one
		// stats registry (the access(a) observations commute) and one
		// template cache (warmed by the router), so the merged report is
		// byte-identical to a single batch mine over the same records.
		var nodes []shard.Node
		var tcache *extract.TemplateCache
		if *role == "coordinator" {
			for i, p := range strings.Split(*peers, ",") {
				nodes = append(nodes, shard.NewHTTPNode(fmt.Sprintf("shard-%d", i), strings.TrimSpace(p), nil))
			}
		} else {
			stats := schema.NewStats()
			skyserver.SeedStats(db, stats)
			tcache = &extract.TemplateCache{}
			for i := 0; i < *shards; i++ {
				s, err := serve.NewServer(serve.Config{
					Miner:            minerCfg(stats),
					QueueSize:        *queue,
					BatchSize:        *batch,
					EpochAreas:       *epochAreas,
					EpochInterval:    *epochInterval,
					Templates:        tcache,
					SnapshotPath:     shardSnapshotPath(*snapshot, i),
					WALDir:           shardWALDir(*walDir, i),
					WALSegmentBytes:  *walSegBytes,
					WALSegmentWindow: *walWindow,
					Traffic:          trafficCfg,
				})
				if err != nil {
					fmt.Fprintf(os.Stderr, "skyserved: shard %d: %v\n", i, err)
					os.Exit(1)
				}
				nodes = append(nodes, shard.NewLocalNode(fmt.Sprintf("shard-%d", i), s))
			}
		}
		statePath := ""
		if *snapshot != "" {
			statePath = *snapshot + ".router"
		}
		coord, err := shard.NewCoordinator(shard.Config{
			Router:          shard.NewRouter(len(nodes), skyserver.Schema(), tcache, 0),
			Nodes:           nodes,
			QueueSize:       *queue,
			BatchSize:       *batch,
			Eps:             *eps,
			Coverage:        db,
			Traffic:         *trafficOn,
			RouterStatePath: statePath,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyserved: %v\n", err)
			os.Exit(1)
		}
		coord.SeedMerge()
		handler = coord.Handler()
		shutdown = func(ctx context.Context) error { return coord.Close() }
		log.Printf("skyserved: coordinator over %d shards", len(nodes))
	} else {
		// Standalone server, or one shard node of a multi-node cluster.
		stats := schema.NewStats()
		skyserver.SeedStats(db, stats)
		cfg := serve.Config{
			Miner:            minerCfg(stats),
			Coverage:         db,
			QueueSize:        *queue,
			BatchSize:        *batch,
			EpochAreas:       *epochAreas,
			EpochInterval:    *epochInterval,
			SnapshotPath:     *snapshot,
			WALDir:           *walDir,
			WALSegmentBytes:  *walSegBytes,
			WALSegmentWindow: *walWindow,
			QueryDB:          db,
			QueryVerify:      *queryVerify,
			CacheBudget:      *cacheBudget,
			Traffic:          trafficCfg,
		}
		if *role == "shard" {
			// A shard mines a routed slice: coverage and the semantic query
			// cache belong to the coordinator's merged view.
			cfg.Coverage = nil
			cfg.QueryDB = nil
		}
		s, err := serve.NewServer(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skyserved: %v\n", err)
			os.Exit(1)
		}
		if *role == "shard" {
			handler = shard.ResultHandler(s)
			log.Printf("skyserved: shard node (coordinator fetches /shard/result)")
		} else {
			handler = s.Handler()
		}
		registry = s.Registry()
		shutdown = s.Shutdown
	}

	httpSrv := newHTTPServer(*addr, handler)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("skyserved: listening on %s", *addr)

	// Debug listener: pprof plus the Prometheus and slowlog views, kept off
	// the service port so profiling is never exposed to ingest clients.
	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if registry != nil {
				_ = registry.WritePrometheus(w)
			}
			_ = obs.Default().WritePrometheus(w)
		})
		mux.Handle("/debug/slowlog", handler)
		debugSrv = newHTTPServer(*debugAddr, mux)
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("skyserved: debug listener: %v", err)
			}
		}()
		log.Printf("skyserved: debug (pprof) on %s", *debugAddr)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("skyserved: %v — draining (budget %s)", sig, *drain)
	case err := <-errCh:
		log.Printf("skyserved: listener: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	_ = httpSrv.Shutdown(ctx)
	if err := shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		log.Printf("skyserved: shutdown: %v", err)
	}
	log.Printf("skyserved: stopped")
}
