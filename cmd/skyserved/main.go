// Command skyserved runs the online access-area mining service: it ingests
// query-log records over HTTP, extracts access areas through the streaming
// pipeline with a warm template cache, re-clusters them in epochs, and
// serves live Table-1-style reports. Every epoch clusters exactly, through
// the same engine as the batch miner: it rescans only the eps-neighbourhoods
// of new areas and of areas whose access(a) columns moved.
//
// Usage:
//
//	skyserved [-addr :8080] [-eps 0.06] [-minpts 8] [-snapshot state.snap]
//	          [-wal-dir wal [-wal-segment-bytes N] [-wal-window N]]
//	          [-traffic [-traffic-overrides user=class,...]]
//	          [-debug-addr :6060] [-role coordinator|shard -peers ...]
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
//	GET  /metrics   the backend's metrics registry as one flat JSON object:
//	                each key is a metric name without its skyaccess_serve_,
//	                skyaccess_coord_ or skyaccess_ prefix and _total suffix
//	                (ingest_accepted, epochs, epoch_last_seconds,
//	                distance_evals, semcache_hits, wal_durable_offset, ...;
//	                a coordinator's shard_N_forwarded, merge_exact, ...);
//	                ?format=prom for Prometheus exposition
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
// Roles (one binary; a sharded deployment is N shard processes plus one
// coordinator, on one host or many):
//
//	(no -role)      standalone server
//	-role shard     one shard of a cluster (adds GET /shard/result and
//	                /shard/traffic for the coordinator)
//	-role coordinator -peers http://h1:8081,http://h2:8081
//	                routes /ingest to the peer shards by relation set and
//	                merges their epochs into one /report
//
// The coordinator serves the shared endpoints plus GET /shard/status
// (per-shard liveness and delivery state); /report adds X-Stale-Shards and
// X-Merge-Exact (judged from the eps every shard reports it clustered at).
// On one host:
//
//	for p in 8081 8082 8083 8084; do skyserved -role shard -addr 127.0.0.1:$p & done
//	skyserved -role coordinator -addr :8080 \
//	    -peers 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083,127.0.0.1:8084
//
// On a 2-vCPU host that cluster took a 20k-record replay to its final
// /report in a median 2.11 s, against 2.32 s for four shard miners inside
// one process and 2.86 s for a single node, at the cost of 413–447 MB
// summed peak RSS against 326–370 MB in one process (DESIGN.md §14).
//
// -peers needs -role coordinator. A role refuses the flags it never reads:
// -query-verify configures a standalone server's /query cache, so both
// roles refuse it; -role coordinator runs no miner, WAL or epoch loop, so
// it also refuses -eps, -minpts, -mode, -seed, -epoch-areas,
// -epoch-interval, -traffic-overrides and the -wal-* flags. Each shard
// process takes those itself.
//
// With -debug-addr a second listener serves net/http/pprof under
// /debug/pprof/ plus the service's own /metrics and /debug/slowlog
// handlers.
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
// epoch and (with -snapshot) persists state for a replay-free restart. A
// coordinator's -snapshot names its router state instead: the assignment
// (state.snap.router) and routing offsets (state.snap.router.offsets),
// written at every flush and on shutdown.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/distance"
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

// validateTopology refuses flag combinations that would start a topology
// other than the one asked for.
func validateTopology(role, peers string) error {
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
	}
	return nil
}

// queryCacheFlags configure the semantic result cache, which only a
// standalone server builds (a shard node and the coordinator get no
// QueryDB).
var queryCacheFlags = []string{"query-verify"}

// coordinatorUnread are the miner, epoch, WAL and traffic-pin flags that
// -role coordinator drops: it builds no miner config and no serve.Server.
var coordinatorUnread = []string{
	"eps", "epoch-areas", "epoch-interval", "minpts", "mode", "seed",
	"traffic-overrides", "wal-dir", "wal-segment-bytes", "wal-window",
}

// validateTopologyFlags refuses a flag the chosen role never reads. set
// holds the flags given on the command line (flag.Visit), so a default
// value never counts.
func validateTopologyFlags(set map[string]bool, role string) error {
	var unread []string
	if role != "" {
		unread = append(unread, queryCacheFlags...)
	}
	if role == "coordinator" {
		unread = append(unread, coordinatorUnread...)
	}
	for _, name := range unread {
		if set[name] {
			return fmt.Errorf("-%s is not read under -role %s", name, role)
		}
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
	minPts := flag.Int("minpts", 8, "DBSCAN minPts (weighted by query multiplicity)")
	mode := flag.String("mode", "endpoint", "d_pred mode: endpoint or literal")
	seed := flag.Int64("seed", 42, "sampling seed")
	rows := flag.Int("rows", 2000, "synthetic database rows per table (access(a) seeding + coverage)")
	queue := flag.Int("queue", 4096, "ingest queue capacity (full queue answers 429)")
	batch := flag.Int("batch", 256, "max records per pipeline batch")
	epochAreas := flag.Int("epoch-areas", 512, "new distinct areas that trigger a re-clustering epoch")
	epochInterval := flag.Duration("epoch-interval", 15*time.Second, "re-cluster on this timer when new areas are pending (0 = off)")
	snapshot := flag.String("snapshot", "", "snapshot path (restored on start, written on shutdown; empty = none); the file is binary, and a JSON snapshot of an earlier build is still read")
	walDir := flag.String("wal-dir", "", "durable ingest WAL directory: /ingest acks only after group-commit fsync, restart replays the tail past the snapshot, POST /remine mines historical windows (empty = off)")
	walSegBytes := flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this size (0 = 8 MiB default)")
	walWindow := flag.Int64("wal-window", 0, "also rotate WAL segments every N logical seconds of record time, for finer /remine segment skipping (0 = size-only)")
	queryVerify := flag.Bool("query-verify", false, "check every cache-served /query result against direct execution (oracle; slow)")
	drain := flag.Duration("drain", time.Minute, "graceful-shutdown drain budget")
	debugAddr := flag.String("debug-addr", "", "debug listener for pprof/metrics/slowlog (empty = off)")
	role := flag.String("role", "", "multi-node role: coordinator or shard (empty = standalone)")
	peers := flag.String("peers", "", "comma-separated shard base URLs (coordinator role)")
	trafficOn := flag.Bool("traffic", false, "classify ingest into bot/human/admin and mine per class: adds /report?class=, /drift and /interfaces (a coordinator assumes its shard peers also run -traffic)")
	trafficOverrides := flag.String("traffic-overrides", "", "comma-separated user=class pins for known crawlers and admin accounts, e.g. sdssbot=bot,dba=admin")
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	dmode, err := distance.ParseMode(*mode)
	if err == nil {
		err = validateTopology(*role, *peers)
	}
	if err == nil {
		err = validateTopologyFlags(set, *role)
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

	// What to serve, and how to stop it, by role. Every role builds the
	// synthetic database: it seeds access(a), backs /query and supplies
	// coverage for the (merged) report.
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: *rows, Seed: 1})
	var handler http.Handler
	var shutdown func(context.Context) error

	if *role == "coordinator" {
		// The coordinator runs no miner: it routes to the peer shard
		// processes and merges their epochs.
		var nodes []*shard.HTTPNode
		for i, p := range strings.Split(*peers, ",") {
			nodes = append(nodes, shard.NewHTTPNode(fmt.Sprintf("shard-%d", i), strings.TrimSpace(p), nil))
		}
		statePath := ""
		if *snapshot != "" {
			statePath = *snapshot + ".router"
		}
		coord, err := shard.NewCoordinator(shard.Config{
			Router:          shard.NewRouter(len(nodes), skyserver.Schema(), 0),
			Nodes:           nodes,
			QueueSize:       *queue,
			BatchSize:       *batch,
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
		// Standalone server, or one shard node of a cluster.
		stats := schema.NewStats()
		skyserver.SeedStats(db, stats)
		cfg := serve.Config{
			Miner: core.Config{
				Schema: skyserver.Schema(), Stats: stats,
				Eps: *eps, MinPts: *minPts,
				Mode: dmode, Seed: *seed,
			},
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
		shutdown = s.Shutdown
	}

	httpSrv := newHTTPServer(*addr, handler)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("skyserved: listening on %s", *addr)

	// Debug listener: pprof plus the service's own /metrics and
	// /debug/slowlog handlers, kept off the service port so profiling is
	// never exposed to ingest clients.
	var debugSrv *http.Server
	if *debugAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/metrics", handler)
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
