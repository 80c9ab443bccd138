// Package serve wraps the batch mining kernels in a long-running service:
// records are ingested over HTTP into a bounded queue, extracted through
// the streaming pipeline with a persistent warm template cache, and
// re-clustered in epochs by the core.Incremental miner so /report always
// serves a recent clustering while distance work is reused across epochs.
//
// The design keeps one invariant front and centre: after the final epoch of
// a drained server, the report is byte-for-byte what the one-shot batch
// miner would print for the same records (the serve-smoke gate).
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/interestcache"
	"repro/internal/memdb"
	"repro/internal/obs"
	"repro/internal/qlog"
	"repro/internal/traffic"
	"repro/internal/wal"
)

// Config parameterises a Server.
type Config struct {
	// Miner is the mining configuration (schema, eps, minPts, mode...).
	// SampleSize should stay 0 for serving: sampling forfeits cross-epoch
	// reuse (see core.Incremental).
	Miner core.Config
	// Coverage, when set, attaches area/object coverage to every epoch's
	// clusters and enables the coverage columns in reports. It must not
	// change while the server runs: an epoch carries a cluster's coverage
	// over from the epoch before when its aggregated area is unchanged.
	Coverage aggregate.DataSource
	// QueueSize bounds the ingest queue; a full queue answers 429
	// (default 4096).
	QueueSize int
	// BatchSize caps how many queued records one pipeline run drains
	// (default 256).
	BatchSize int
	// EpochAreas triggers a re-clustering epoch once that many NEW distinct
	// areas accumulated since the last one (default 512).
	EpochAreas int
	// EpochInterval additionally re-clusters on a timer when new areas are
	// pending (0 = disabled; useful because a trickle of duplicates never
	// trips EpochAreas).
	EpochInterval time.Duration
	// SnapshotPath, when set, is written atomically on Close and restored
	// by NewServer, so a restarted server resumes without log replay.
	SnapshotPath string
	// WALDir, when set, enables the durable ingest write-ahead log: every
	// admitted record is appended to a segmented WAL and /ingest replies
	// only after a group-commit fsync covers it, so an acknowledged record
	// survives a crash. On restart the WAL tail past the snapshot's covered
	// offset is replayed through the pipeline before serving, and POST
	// /remine mines historical time windows straight from the log. Configure
	// the WAL from the server's first boot: the log must cover every
	// accepted record for replay offsets to line up.
	WALDir string
	// WALSegmentBytes rotates WAL segments by size (0 = the wal package
	// default, 8 MiB).
	WALSegmentBytes int64
	// WALSegmentWindow rotates WAL segments once the record-time span they
	// cover reaches this many time units (0 = size-only rotation). Smaller
	// windows mean finer-grained segment skipping for /remine.
	WALSegmentWindow int64
	// QueryDB, when set, enables POST /query: statements are answered by
	// the interest-driven semantic cache (regions prefetched from this
	// database after every epoch) with fall-through to direct execution.
	// The DB must not be written while the server runs: region stores
	// share its rows, and a region whose mined area is unchanged keeps its
	// store across epochs.
	QueryDB *memdb.DB
	// QueryVerify turns on the cache's byte-identity oracle: every
	// cache-served result is checked against direct execution. Costs a
	// second execution per hit; for tests and smoke gates.
	QueryVerify bool
	// Traffic, when non-nil, enables traffic-class-aware mining: records
	// are classified bot/human/admin in processing order, one incremental
	// miner per class runs alongside the global one (sharing its distance
	// substrate), GET /report?class= serves the per-class partition of the
	// global report, GET /drift the per-class interest-drift events, and
	// GET /interfaces the hottest mined query interfaces.
	Traffic *traffic.Config
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.EpochAreas <= 0 {
		c.EpochAreas = 512
	}
	return c
}

// queryExec is applied to both cache and direct execution of POST /query,
// matching SkyServer's limits.
var queryExec = memdb.ExecOptions{RowLimit: 500000, StrictTSQL: true}

// TemplateCacheLimit bounds the statement shapes a server's template cache
// stores (extract.TemplateCache.Limit). SkyServer-shaped logs carry a few
// hundred to two thousand shapes (about 1,850 in 150k GenerateMixedLog
// records); the bound stops a flood of alias-variant statements, each its
// own fingerprint, from growing the heap without end. A statement whose
// shape is refused takes the full path.
const TemplateCacheLimit = 4096

// Server is the online mining service. Create with NewServer, serve its
// Handler, and Shutdown to drain, run the final epoch and snapshot.
type Server struct {
	cfg   Config
	miner *core.Miner
	inc   *core.Incremental
	pipe  *qlog.Pipeline

	// baseCtx stops the pump at the next batch boundary when a
	// deadline-bound Shutdown gives up on draining (or Abort crashes).
	baseCtx context.Context
	cancel  context.CancelFunc

	queue chan qlog.Record

	// mu guards closed, the cumulative pipeline stats and processed; cond
	// signals processed advances (Flush waits on it).
	mu        sync.Mutex
	cond      *sync.Cond
	closed    bool
	cum       qlog.Stats
	processed int64

	// snapMu makes (processed, cum, miner state) batch-boundary consistent:
	// runBatch holds it across the pipeline run and the counter update, and
	// WriteSnapshot holds it while exporting, so a snapshot taken mid-run
	// never pairs a miner state covering records the processed count does
	// not — the WAL replay offset depends on that alignment.
	snapMu sync.Mutex

	// wal is the durable ingest log (nil unless Config.WALDir is set).
	wal *wal.WAL
	// walHigh is one past the offset of the last record this server
	// appended (under s.mu). Commit reads it right after a caller's
	// final enqueue, so the durability barrier targets the caller's own
	// records and free-rides on group commits instead of chasing the
	// ever-advancing global append frontier.
	walHigh uint64

	accepted atomic.Int64
	rejected atomic.Int64
	start    time.Time

	epochTrig chan struct{}
	stopEpoch chan struct{}
	pumpDone  chan struct{}
	epochDone chan struct{}

	// epochMu serialises Recluster (the epoch worker, Flush and Shutdown
	// can all request one). epochForced/epochProcessed/epochStatsGen (also
	// under epochMu) remember what the last epoch covered, so an idempotent
	// re-flush — nothing processed, no stats movement since a forced epoch —
	// skips the re-cluster instead of redoing it. cov (also under epochMu)
	// carries cluster coverage from one epoch to the next.
	epochMu        sync.Mutex
	cov            coverageMemo
	epochForced    bool
	epochProcessed int64
	epochStatsGen  uint64
	newSinceEpoch  atomic.Int64
	epochs         atomic.Int64
	lastEpochNS    atomic.Int64
	totalEpochNS   atomic.Int64

	// resMu guards res, classRes and resGen together so /report's ETag
	// always labels the exact body served.
	resMu    sync.RWMutex
	res      *core.Result
	classRes map[string]*core.Result
	resGen   int64

	// traffic is the traffic-class mining subsystem (nil unless
	// Config.Traffic is set).
	traffic *trafficState

	// qcache is the semantic result cache behind POST /query (nil when
	// Config.QueryDB is unset). runEpoch re-installs its region set.
	qcache *interestcache.Cache

	// reg is the server's private metrics registry, the one source of both
	// /metrics views (see initRegistry).
	reg *obs.Registry
	// snapBytes is the size of the last snapshot written; graphInstalled
	// the neighbour-graph slots the restore installed, and graphFallbacks
	// counts restores that dropped the graph, by core fallback reason.
	snapBytes      *obs.Gauge
	graphInstalled *obs.Gauge
	graphFallbacks map[string]*obs.Counter
}

// NewServer builds a Server and starts its pump and epoch workers. When
// cfg.SnapshotPath names an existing snapshot, the mining state is restored
// from it (and an epoch run) before any ingest is accepted.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	miner := core.NewMiner(cfg.Miner)
	ctx, cancel := context.WithCancel(context.Background())
	// With traffic mining on, the global miner clusters through the shared
	// substrate too: it interns every area first, so the class miners'
	// epochs find their distances already computed.
	var ts *trafficState
	var inc *core.Incremental
	if cfg.Traffic != nil {
		ts = newTrafficState(*cfg.Traffic, miner)
		inc = miner.IncrementalShared(ts.sub)
	} else {
		inc = miner.Incremental()
	}
	s := &Server{
		cfg:       cfg,
		miner:     miner,
		inc:       inc,
		traffic:   ts,
		baseCtx:   ctx,
		cancel:    cancel,
		queue:     make(chan qlog.Record, cfg.QueueSize),
		epochTrig: make(chan struct{}, 1),
		stopEpoch: make(chan struct{}),
		pumpDone:  make(chan struct{}),
		epochDone: make(chan struct{}),
		start:     time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.pipe = &qlog.Pipeline{
		Extractor: &extract.Extractor{Schema: cfg.Miner.Schema, Stats: miner.Stats()},
		Workers:   cfg.Miner.Workers,
		Cache:     &extract.TemplateCache{Limit: TemplateCacheLimit},
	}
	if cfg.QueryDB != nil {
		// The cache shares the pipeline's memo and template cache and an
		// extractor with the same schema and predicate cap, so statements
		// and templates warmed by ingestion serve POST /query without
		// re-extraction.
		s.qcache = interestcache.New(interestcache.Config{
			DB:        cfg.QueryDB,
			Extractor: &extract.Extractor{Schema: cfg.Miner.Schema},
			Templates: s.pipe.Cache,
			Exec:      queryExec,
			Verify:    cfg.QueryVerify,
		})
	}
	s.initRegistry()
	// Restore order: registry, representatives and traffic state (all in
	// restoreSnapshot), the WAL tail, the neighbour graph, the anchoring
	// epoch.
	var graph *core.GraphState
	var restoredGen, walOffset uint64
	if cfg.SnapshotPath != "" {
		sp := recoverRestoreStage.Start()
		snap, gen, err := s.restoreSnapshot(cfg.SnapshotPath)
		sp.End()
		if err != nil {
			cancel()
			return nil, err
		}
		if snap != nil {
			// Only the graph is kept past here: the rest of the decoded
			// snapshot is garbage before the replay starts.
			graph, restoredGen, walOffset = snap.Graph, gen, snap.WALOffset
		}
	}
	if cfg.WALDir != "" {
		sp := recoverReplayStage.Start()
		w, err := wal.Open(cfg.WALDir, wal.Options{
			SegmentBytes:  cfg.WALSegmentBytes,
			SegmentWindow: cfg.WALSegmentWindow,
		})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: opening WAL: %w", err)
		}
		s.wal = w
		// Replay the durable tail the snapshot does not cover, then align
		// the ingest counters with the log: every appended record was
		// accepted, and replay pushed processed up to the log's end.
		err = s.replayWAL(walOffset)
		sp.End()
		if err != nil {
			w.Close()
			cancel()
			return nil, fmt.Errorf("serve: WAL replay: %w", err)
		}
		if n := int64(w.NextOffset()); n > s.accepted.Load() {
			s.accepted.Store(n)
		}
		w.SetCompactFloor(walOffset)
	}
	// The graph goes in after the replay: installed before it, its lists
	// stay live through the whole replay and every GC cycle marks them
	// (the ingest_dup replay took 1.75× as long that way; DESIGN §10).
	if graph != nil {
		sp := recoverInstallStage.Start()
		s.installGraph(graph, restoredGen)
		sp.End()
	}
	// One anchoring epoch over everything restored and replayed, so /report
	// is immediately consistent with the recovered state. Drift turns on
	// only afterwards: the anchoring epoch reproduces the recovered
	// clustering and must not be diffed against the restored prev snapshot.
	if s.inc.Distinct() > 0 {
		sp := recoverEpochStage.Start()
		s.runEpoch(true)
		sp.End()
	}
	if s.traffic != nil {
		s.traffic.driftOn = true
	}
	go s.pump()
	go s.epochLoop()
	return s, nil
}

// replayWAL streams the log tail from offset from through the extraction
// pipeline in pump-sized batches. It runs before the pump starts, so it owns
// the miner exclusively; the replayed records move the processed counter
// exactly as live ingestion would have.
func (s *Server) replayWAL(from uint64) error {
	batch := make([]qlog.Record, 0, s.cfg.BatchSize)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		st := s.extractBatch(batch)
		s.mu.Lock()
		s.cum.Merge(st)
		s.processed += int64(len(batch))
		s.mu.Unlock()
		batch = batch[:0]
	}
	err := s.wal.Replay(from, func(rec qlog.Record) error {
		batch = append(batch, rec)
		if len(batch) >= s.cfg.BatchSize {
			flush()
		}
		return nil
	})
	flush()
	return err
}

// Miner exposes the underlying miner (tests compare against batch runs).
func (s *Server) Miner() *core.Miner { return s.miner }

// Sentinel admission errors, exported so the shard coordinator (and other
// embedders) can distinguish backpressure (retry later: ErrQueueFull) from
// shutdown (stop: ErrClosed). ErrRecordTooLarge is the coordinator's own:
// a record whose forwarded NDJSON line would exceed MaxLineBytes, which no
// shard would ever admit.
var (
	ErrClosed         = errors.New("serve: server is shutting down")
	ErrQueueFull      = errors.New("serve: ingest queue full")
	ErrRecordTooLarge = errors.New("serve: record exceeds the NDJSON line cap")
)

// enqueue admits one record or reports why it could not. With a WAL
// configured, admission also appends the record to the log (asynchronously —
// durability is enforced by Commit before any acknowledgement). The queue
// send and the WAL append happen under one mutex hold, so WAL order is
// exactly processing order and replay reproduces the live run.
func (s *Server) enqueue(rec qlog.Record) error {
	var fp uint64
	if s.wal != nil {
		// Fingerprint outside the admission lock: lexing is the expensive
		// part, and the WAL's segment index is keyed by it (0 = unlexable;
		// compaction keeps such a record as a single). Doing it here — on
		// the ingest goroutine, which otherwise idles on backpressure —
		// keeps it off the WAL writer's sync-barrier critical path. The lexer pass comes from the
		// exact-statement memo, so a re-issued text is not lexed again, and
		// the entry rides on the record so the pipeline reuses it (and, once
		// the text was extracted, its whole outcome).
		if rec.Stmt == nil {
			rec.Stmt = s.pipe.Cache.Stmt(rec.SQL)
		}
		fp, _, _ = rec.Stmt.Fingerprint()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.queue <- rec:
		if s.wal != nil {
			// Append cannot report a closed WAL here: the WAL closes only
			// after s.closed is set, which this mutex hold just ruled out.
			// Write errors surface at the Commit fsync barrier.
			if off, err := s.wal.Append(rec, fp); err == nil {
				s.walHigh = off + 1
			}
		}
		s.accepted.Add(1)
		return nil
	default:
		s.rejected.Add(1)
		return ErrQueueFull
	}
}

// Commit is the durability barrier: it blocks until every record appended
// so far is fsynced. Callers invoke it before acknowledging accepted
// records; with no WAL configured it is free.
func (s *Server) Commit(accepted int) error {
	if s.wal == nil || accepted == 0 {
		return nil
	}
	// Target the frontier as of this caller's last accepted record (other
	// clients may have nudged walHigh a hair further — their records land in
	// the same group commit anyway). If a concurrent barrier's fsync already
	// covered it, SyncTo returns without another fsync.
	s.mu.Lock()
	target := s.walHigh
	s.mu.Unlock()
	return s.wal.SyncTo(target)
}

// IngestRecords admits records in order until one is refused, returning how
// many were accepted and the first admission error (nil when all made it).
// It is the programmatic twin of POST /ingest.
// The accepted prefix is WAL-durable before the call returns.
func (s *Server) IngestRecords(recs []qlog.Record) (int, error) {
	accepted := len(recs)
	var admitErr error
	for i := range recs {
		if err := s.enqueue(recs[i]); err != nil {
			accepted, admitErr = i, err
			break
		}
	}
	if err := s.Commit(accepted); err != nil {
		// Nothing is durably acknowledged when the fsync fails: the caller
		// must treat the whole call as refused and re-send.
		return 0, err
	}
	return accepted, admitErr
}

// pump is the single queue consumer: it drains records in batches through
// the extraction pipeline (template cache warm across batches) and feeds
// extractions to the incremental miner.
func (s *Server) pump() {
	defer close(s.pumpDone)
	batch := make([]qlog.Record, 0, s.cfg.BatchSize)
	for {
		rec, ok := <-s.queue
		if !ok {
			return
		}
		batch = append(batch[:0], rec)
		open := true
	collect:
		for len(batch) < s.cfg.BatchSize {
			select {
			case r, ok2 := <-s.queue:
				if !ok2 {
					open = false
					break collect
				}
				batch = append(batch, r)
			default:
				break collect
			}
		}
		// A cancelled baseCtx stops the pump between batches, never inside
		// one: processed then counts only mined records, so a snapshot's WAL
		// offset leaves the unmined rest to replay.
		if s.baseCtx.Err() != nil {
			return
		}
		s.runBatch(batch)
		if !open {
			return
		}
	}
}

func (s *Server) runBatch(batch []qlog.Record) {
	sp := ingestBatchStage.Start()
	defer sp.End()
	// snapMu spans the pipeline run AND the counter update: a snapshot
	// taken between them would export miner state covering records that
	// processed does not count, and WAL replay would then double-feed them.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	st := s.extractBatch(batch)
	s.mu.Lock()
	s.cum.Merge(st)
	s.processed += int64(len(batch))
	s.mu.Unlock()
	s.cond.Broadcast()
	if s.newSinceEpoch.Load() >= int64(s.cfg.EpochAreas) {
		select {
		case s.epochTrig <- struct{}{}:
		default:
		}
	}
}

// epochLoop re-clusters on the size trigger and (optionally) on a timer.
func (s *Server) epochLoop() {
	defer close(s.epochDone)
	var tick <-chan time.Time
	if s.cfg.EpochInterval > 0 {
		t := time.NewTicker(s.cfg.EpochInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stopEpoch:
			return
		case <-s.epochTrig:
			s.runEpoch(false)
		case <-tick:
			if s.newSinceEpoch.Load() > 0 {
				s.runEpoch(false)
			}
		}
	}
}

// runEpoch re-clusters what changed since the last epoch and publishes the
// result. force marks the deterministic boundaries — Flush, Shutdown and
// snapshot restore — where traffic drift is observed; the periodic epoch
// worker passes false.
func (s *Server) runEpoch(force bool) {
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	// Idempotent re-flush: when the last epoch was forced and neither the
	// processed count nor the stats registry moved since, another epoch
	// would reproduce it exactly — skip the re-cluster. Only a forced epoch
	// licenses the skip: after an unforced one, the forced epoch still has
	// drift to observe, and skipping it would make /drift depend on timing. (A
	// second POST /flush, or a coordinator flush right after the shard's own,
	// becomes cheap instead of repeating the most expensive operation.)
	processedNow := s.processedCount()
	genNow := s.statsGeneration()
	if s.epochForced && s.epochs.Load() > 0 &&
		processedNow == s.epochProcessed && genNow == s.epochStatsGen {
		return
	}
	sp := epochServeStage.Start()
	defer sp.End()
	t0 := time.Now()
	// Areas added while Recluster runs belong to the next epoch.
	s.newSinceEpoch.Store(0)
	res := s.inc.Recluster()
	res.PipelineStats = s.statsSnapshot()
	if s.cfg.Coverage != nil {
		s.cov.attach(res, s.cfg.Coverage)
	}
	// The class miners recluster after the global one: every area is
	// already interned in the shared substrate and its neighbour graph is
	// current, so the class epochs evaluate no distances.
	var classRes map[string]*core.Result
	if s.traffic != nil {
		classRes = s.reclusterClasses(force)
	}
	s.cov.endEpoch()
	el := time.Since(t0)
	s.lastEpochNS.Store(int64(el))
	s.totalEpochNS.Add(int64(el))
	gen := s.epochs.Add(1)
	s.resMu.Lock()
	s.res = res
	s.classRes = classRes
	s.resGen = gen
	s.resMu.Unlock()
	if s.qcache != nil {
		s.qcache.Install(gen, res.Clusters)
	}
	s.epochForced = force
	s.epochProcessed = processedNow
	s.epochStatsGen = genNow
}

// statsGeneration reads the stats registry's mutation counter (0 when the
// miner runs without one); a stable value across two instants proves every
// distance profile compiled from the registry is identical at both.
func (s *Server) statsGeneration() uint64 {
	if st := s.miner.Stats(); st != nil {
		return st.Generation()
	}
	return 0
}

// Latest returns the most recent epoch's result for one traffic class ("" =
// the global clustering) and its generation (nil before the first epoch, or
// for a class with traffic mining off). A single node has no stale shards.
// Callers must treat the Result as immutable — it is shared with every
// /report in flight.
func (s *Server) Latest(class string) (*core.Result, int64, []string) {
	s.resMu.RLock()
	defer s.resMu.RUnlock()
	if class == "" {
		return s.res, s.resGen, nil
	}
	return s.classRes[class], s.resGen, nil
}

// StatsSnapshot exposes a copy of the cumulative pipeline statistics.
func (s *Server) StatsSnapshot() *qlog.Stats { return s.statsSnapshot() }

// QueryCache exposes the semantic result cache (nil unless QueryDB is set).
func (s *Server) QueryCache() *interestcache.Cache { return s.qcache }

// statsSnapshot copies the cumulative pipeline stats (deep enough for the
// caller to keep: the failure map is cloned).
func (s *Server) statsSnapshot() *qlog.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cum
	if c.ParseFailures != nil {
		m := make(map[string]int, len(c.ParseFailures))
		for k, v := range c.ParseFailures {
			m[k] = v
		}
		c.ParseFailures = m
	}
	return &c
}

// Flush blocks until every record accepted before the call has been
// extracted, then runs an epoch synchronously. It is the determinism hook:
// after Flush, /report reflects every prior ingest.
func (s *Server) Flush() {
	target := s.accepted.Load()
	s.mu.Lock()
	for s.processed < target && !s.closed {
		s.cond.Wait()
	}
	s.mu.Unlock()
	s.runEpoch(true)
}

// Shutdown gracefully stops the server: intake closes (handlers answer
// 503), the queue drains through extraction, the epoch worker stops, a
// final epoch covers everything accepted, and — when configured — a
// snapshot is written. If ctx expires while draining, the pump stops after
// its current batch (the rest of the queue is abandoned, and counted
// neither as processed nor in the pipeline stats) and the final epoch
// covers what was extracted; with a WAL, the snapshot's offset leaves the
// abandoned records to replay on restart.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.epochDone
		return nil
	}
	s.closed = true
	close(s.queue)
	s.cond.Broadcast()
	s.mu.Unlock()

	select {
	case <-s.pumpDone:
	case <-ctx.Done():
		s.cancel() // stop the pump after its current batch
		<-s.pumpDone
	}
	close(s.stopEpoch)
	<-s.epochDone
	s.runEpoch(true)
	s.cancel()
	if s.cfg.SnapshotPath != "" {
		if err := s.WriteSnapshot(s.cfg.SnapshotPath); err != nil {
			return fmt.Errorf("serve: final snapshot: %w", err)
		}
	}
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			return fmt.Errorf("serve: closing WAL: %w", err)
		}
	}
	return ctx.Err()
}

// Abort simulates a crash for recovery tests: the queue closes, the pump
// stops after its current batch, workers stop — but no final epoch
// runs and no snapshot is written. Whatever the WAL fsynced is all that
// survives, exactly as after a kill -9.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.epochDone
		return
	}
	s.closed = true
	close(s.queue)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	<-s.pumpDone
	close(s.stopEpoch)
	<-s.epochDone
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

// Close is Shutdown without a deadline: it always drains fully, so no
// accepted record is lost.
func (s *Server) Close() error {
	return s.Shutdown(context.Background())
}
