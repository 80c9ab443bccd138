package shard

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/qlog"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/traffic"
)

// Config parameterises a Coordinator.
type Config struct {
	// Router owns the relation-set→shard assignment. Required.
	Router *Router
	// Nodes are the shards, indexed as the router indexes them. Required,
	// len(Nodes) == Router.Shards().
	Nodes []Node
	// QueueSize bounds each shard's pending-record queue (default 1024).
	// A full queue surfaces as 429 to the ingesting client — backpressure
	// propagates instead of buffering without bound.
	QueueSize int
	// BatchSize caps how many queued records one forwarded ingest carries
	// (default 128).
	BatchSize int
	// Coverage, when set, attaches area/object coverage to the merged
	// clusters (shards run without a coverage source; the scalars are
	// cluster-local, so attaching once post-merge is equivalent).
	Coverage aggregate.DataSource
	// Traffic declares that the shards mine per traffic class (they were
	// started with a traffic config) and enables the coordinator's
	// class-aware surfaces: /report?class=, /drift and /interfaces. Each
	// Flush then also fetches every shard's traffic bundle and merges it.
	Traffic bool
	// HealthInterval paces the liveness probe of every node (default 2s).
	HealthInterval time.Duration
	// RouterStatePath, when set, persists the router assignment on Close
	// and restores it in NewCoordinator (see Router.SaveState).
	RouterStatePath string
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 128
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	return c
}

// Coordinator fans ingested records out to shard nodes by relation-set key
// and merges their epoch results into one global Table-1 view. It carries
// the serve layer's determinism contract across the fan-out: after Flush,
// the merged /report reflects every record accepted before it, and — in the
// in-process topology — is byte-identical to a single batch mine.
type Coordinator struct {
	cfg    Config
	router *Router
	nodes  []Node

	// ingestMu serialises admission (mirrors serve.Server.enqueue: the
	// closed check and the queue send must be atomic with respect to
	// Close's channel close). It also guards the warmup staging state.
	ingestMu sync.Mutex
	closed   bool
	// stage buffers records whose relation-set key the router is still
	// observing (Route returned ShardStaged); bindStaged moves each key's
	// buffer to its owner when the router binds. Bounded by the router's
	// warmup horizon, so no extra cap is needed.
	stage map[string][]qlog.Record
	// pending is each shard's bind-time backlog: records (staged or live)
	// that found the shard's queue full. Enqueue drains it opportunistically
	// and appends behind it — per-shard FIFO through the pending queue is
	// what preserves per-key record order across the bind. pendingN records
	// total, capped at pendingCap → 429.
	pending    [][]qlog.Record
	pendingN   int
	pendingCap int

	queues    []chan qlog.Record
	enqueued  []atomic.Int64 // admitted to the shard queue
	forwarded []atomic.Int64 // accepted by the shard node
	dropped   []atomic.Int64 // abandoned after Close with the shard down
	// baseForwarded/baseAccepted carry the routing offsets restored from the
	// previous run's persisted state (see offsets.go), so the offsets the
	// coordinator persists are monotonic across restarts while the per-run
	// atomics keep their drained()/Status() meaning.
	baseForwarded []int64
	baseAccepted  int64
	down          []atomic.Bool
	retries       atomic.Int64

	accepted atomic.Int64
	rejected atomic.Int64
	start    time.Time

	senderWG   sync.WaitGroup
	stopHealth chan struct{}
	healthDone chan struct{}

	// flushMu serialises Flush; mergeMu guards the merged view.
	flushMu sync.Mutex
	mergeMu sync.RWMutex
	merged  *core.Result
	gen     int64
	stale   []string // node names whose contribution is last-known, not fresh

	// lastResults/lastStats cache each shard's most recent successful fetch
	// so a down shard degrades the merged report to stale instead of absent.
	lastResults []*core.Result
	lastStats   []*qlog.Stats

	// lastTraffic caches each shard's most recent traffic bundle (only
	// fetched with cfg.Traffic set); the merged* views are rebuilt from it
	// by remerge. All under mergeMu.
	lastTraffic  []*WireTraffic
	mergedClass  map[string]*core.Result
	mergedDrift  []traffic.Event
	mergedIfaces []traffic.Interface
	ifaceTracked int
}

// NewCoordinator builds a coordinator over cfg.Nodes and starts one sender
// goroutine per shard plus the health loop.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	n := len(cfg.Nodes)
	c := &Coordinator{
		cfg:         cfg,
		router:      cfg.Router,
		nodes:       cfg.Nodes,
		stage:       make(map[string][]qlog.Record),
		pending:     make([][]qlog.Record, n),
		pendingCap:  n * cfg.QueueSize,
		queues:      make([]chan qlog.Record, n),
		enqueued:    make([]atomic.Int64, n),
		forwarded:   make([]atomic.Int64, n),
		dropped:     make([]atomic.Int64, n),
		down:        make([]atomic.Bool, n),
		start:       time.Now(),
		stopHealth:  make(chan struct{}),
		healthDone:  make(chan struct{}),
		lastResults: make([]*core.Result, n),
		lastStats:   make([]*qlog.Stats, n),
		lastTraffic: make([]*WireTraffic, n),
	}
	c.baseForwarded = make([]int64, n)
	if cfg.RouterStatePath != "" {
		if err := c.router.LoadState(cfg.RouterStatePath); err != nil {
			return nil, err
		}
		if err := c.loadOffsets(); err != nil {
			return nil, err
		}
	}
	for i := range c.queues {
		c.queues[i] = make(chan qlog.Record, cfg.QueueSize)
		c.senderWG.Add(1)
		go c.sender(i)
	}
	go c.healthLoop()
	return c, nil
}

// Enqueue routes one record and admits it to the owning shard's queue (or,
// during the router's warmup, to the per-key staging buffer). Errors are
// serve's admission sentinels, so the shared /ingest handler answers the
// same status codes a single server would.
func (c *Coordinator) Enqueue(rec qlog.Record) error {
	shardIdx, key := c.router.Route(&rec)
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	if c.closed {
		return serve.ErrClosed
	}
	if shardIdx == ShardStaged {
		c.stage[key] = append(c.stage[key], rec)
		c.accepted.Add(1)
		if c.router.NeedsBind() {
			c.bindStagedLocked()
		}
		return nil
	}
	return c.admitLocked(shardIdx, rec)
}

// admitLocked delivers one routed record to shard i, going through the
// shard's pending backlog when one exists so per-shard FIFO (and therefore
// per-key order) holds across the bind. Caller holds ingestMu.
func (c *Coordinator) admitLocked(i int, rec qlog.Record) error {
	c.drainPendingLocked(i)
	if len(c.pending[i]) > 0 {
		if c.pendingN >= c.pendingCap {
			c.rejected.Add(1)
			return serve.ErrQueueFull
		}
		c.pending[i] = append(c.pending[i], rec)
		c.pendingN++
		c.accepted.Add(1)
		return nil
	}
	select {
	case c.queues[i] <- rec:
		c.enqueued[i].Add(1)
		c.accepted.Add(1)
		return nil
	default:
		c.rejected.Add(1)
		return serve.ErrQueueFull
	}
}

// bindStagedLocked ends the router's warmup and hands every staged key's
// buffer to its newly bound owner, in deterministic (sorted-key) order.
// Buffers that outsize the shard queue spill to the shard's pending backlog
// rather than block — the senders drain the queues concurrently, and
// admitLocked/Flush/Close finish the job. Caller holds ingestMu.
func (c *Coordinator) bindStagedLocked() {
	bound := c.router.BindAll()
	if len(bound) == 0 && len(c.stage) == 0 {
		return
	}
	keys := make([]string, 0, len(bound))
	for k := range bound {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		i := bound[k]
		c.pending[i] = append(c.pending[i], c.stage[k]...)
		c.pendingN += len(c.stage[k])
		delete(c.stage, k)
	}
	for i := range c.pending {
		c.drainPendingLocked(i)
	}
}

// drainPendingLocked moves as much of shard i's pending backlog into its
// queue as fits right now, without blocking. Caller holds ingestMu.
func (c *Coordinator) drainPendingLocked(i int) {
	p := c.pending[i]
	moved := 0
	for moved < len(p) {
		select {
		case c.queues[i] <- p[moved]:
			c.enqueued[i].Add(1)
			moved++
		default:
			goto done
		}
	}
done:
	if moved > 0 {
		rest := p[moved:]
		if len(rest) == 0 {
			c.pending[i] = p[:0]
		} else {
			c.pending[i] = append(p[:0], rest...)
		}
		c.pendingN -= moved
	}
}

// finishBind forces the bind (when warmup never completed) and keeps
// draining pending backlogs until they are empty — skipping shards that are
// down, whose backlog stays buffered like their queue does.
func (c *Coordinator) finishBind() {
	c.ingestMu.Lock()
	if c.closed {
		// Close owns the bind and the backlog from here; touching the queues
		// again could race its channel close.
		c.ingestMu.Unlock()
		return
	}
	c.bindStagedLocked()
	c.ingestMu.Unlock()
	for {
		c.ingestMu.Lock()
		if c.closed {
			c.ingestMu.Unlock()
			return
		}
		remaining := 0
		for i := range c.pending {
			if c.down[i].Load() {
				continue
			}
			c.drainPendingLocked(i)
			remaining += len(c.pending[i])
		}
		c.ingestMu.Unlock()
		if remaining == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sender is shard i's single forwarder: it drains the queue in batches and
// delivers each batch in order, retrying the undelivered tail forever on
// backpressure (the shard's queue-full 429 thereby paces the coordinator's
// own admission: the queue fills and the client sees 429). Transport errors
// mark the shard down but keep the batch buffered and retrying — records
// are abandoned only when the coordinator is closing and the shard stays
// unreachable.
func (c *Coordinator) sender(i int) {
	defer c.senderWG.Done()
	q := c.queues[i]
	batch := make([]qlog.Record, 0, c.cfg.BatchSize)
	for {
		rec, ok := <-q
		if !ok {
			return
		}
		batch = append(batch[:0], rec)
	collect:
		for len(batch) < c.cfg.BatchSize {
			select {
			case r, ok2 := <-q:
				if !ok2 {
					c.forward(i, batch)
					return
				}
				batch = append(batch, r)
			default:
				break collect
			}
		}
		c.forward(i, batch)
	}
}

func (c *Coordinator) forward(i int, batch []qlog.Record) {
	attempts := 0
	for len(batch) > 0 {
		n, err := c.nodes[i].Ingest(batch)
		if n > 0 {
			c.forwarded[i].Add(int64(n))
			batch = batch[n:]
			attempts = 0
		}
		if len(batch) == 0 {
			break
		}
		c.retries.Add(1)
		attempts++
		switch {
		case err == nil || retryableIngest(err):
			// Backpressure: the shard is mining as fast as it can.
			time.Sleep(time.Millisecond)
		default:
			c.down[i].Store(true)
			if c.Closed() && attempts > 20 {
				c.dropped[i].Add(int64(len(batch)))
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	c.down[i].Store(false)
}

// Closed reports whether Close has begun.
func (c *Coordinator) Closed() bool {
	c.ingestMu.Lock()
	defer c.ingestMu.Unlock()
	return c.closed
}

// healthLoop probes every node on a timer so /shard/status and report
// staleness reflect liveness even while no ingest is flowing. A probe only
// marks a shard down; recovery is detected by the next successful probe or
// forward.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopHealth:
			return
		case <-t.C:
			for i, node := range c.nodes {
				c.down[i].Store(!node.Healthy())
			}
		}
	}
}

// drained reports whether shard i's queue has been fully delivered (or
// abandoned).
func (c *Coordinator) drained(i int) bool {
	return c.forwarded[i].Load()+c.dropped[i].Load() >= c.enqueued[i].Load()
}

// Flush makes the merged report deterministic: it binds any still-staged
// keys and delivers their buffers, waits for every accepted record to reach
// its shard, quiesces the shards, asks each to flush (final epoch), fetches
// the per-shard results and re-merges. Down shards are skipped — their
// last-known result stays in the merge and the shard is reported stale — so
// one dead node degrades the report instead of wedging it.
func (c *Coordinator) Flush() {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.finishBind()
	// Wait for the senders to deliver the backlog; a down shard's backlog
	// stays buffered and is excluded from the wait.
	for {
		pending := false
		for i := range c.nodes {
			if !c.down[i].Load() && !c.drained(i) {
				pending = true
			}
		}
		if !pending {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Quiesce before any final epoch: in the in-process topology the shards
	// share one stats registry, and an epoch compiles distance profiles from
	// it (distance.Matrix reads the per-column access sets) — so no shard may
	// run its flush epoch while another is still processing and observing.
	// Quiescing pins the registry generation, which makes the final full
	// recluster deterministic and batch-identical regardless of per-shard
	// timing.
	for {
		busy := false
		for i, node := range c.nodes {
			if c.down[i].Load() {
				continue
			}
			tel, err := node.Telemetry()
			if err != nil {
				c.down[i].Store(true)
				continue
			}
			if tel.Processed < tel.Accepted {
				busy = true
			}
		}
		if !busy {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	var wg sync.WaitGroup
	fresh := make([]bool, len(c.nodes))
	for i, node := range c.nodes {
		if c.down[i].Load() {
			continue
		}
		wg.Add(1)
		go func(i int, node Node) {
			defer wg.Done()
			if err := node.Flush(); err != nil || !c.fetch(i, false) {
				c.down[i].Store(true)
				return
			}
			fresh[i] = true
		}(i, node)
	}
	wg.Wait()
	c.remerge(fresh)
	// Persist the routing state at every deterministic point, not just on
	// Close: a coordinator crash after a flush then loses no binding and no
	// offset — the shards' WALs hold the records, this sidecar holds who
	// owns them. Best-effort here (Flush has no error path; Close retries
	// with propagation).
	_ = c.persistState()
}

// remerge rebuilds the merged view from the per-shard result cache. fresh
// marks which entries were refetched this round; the rest are stale.
func (c *Coordinator) remerge(fresh []bool) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	var stale []string
	for i := range c.nodes {
		if !fresh[i] {
			stale = append(stale, c.nodes[i].Name())
		}
	}
	merged := core.MergeResults(c.lastResults...)
	if c.cfg.Coverage != nil {
		merged.AttachCoverage(c.cfg.Coverage)
	}
	c.merged = merged
	c.stale = stale
	if c.cfg.Traffic {
		c.mergeTrafficLocked()
	}
	c.gen++
}

// fetch refreshes shard i's cached result, stats and (with traffic mining)
// traffic bundle. It caches nothing and returns false when a fetch fails
// or, with needResult, when the shard has no epoch yet.
func (c *Coordinator) fetch(i int, needResult bool) bool {
	node := c.nodes[i]
	res, _, err := node.Result()
	if err != nil || (needResult && res == nil) {
		return false
	}
	st, err := node.Stats()
	if err != nil {
		return false
	}
	var tr *WireTraffic
	if c.cfg.Traffic {
		if tr, err = node.Traffic(); err != nil {
			return false
		}
	}
	c.mergeMu.Lock()
	c.lastResults[i] = res
	c.lastStats[i] = st
	if tr != nil {
		c.lastTraffic[i] = tr
	}
	c.mergeMu.Unlock()
	return true
}

// SeedMerge primes the merged view from shards that already hold an epoch
// result — i.e. after a restart where every shard restored its snapshot.
// Without it a restarted coordinator answers 503 on /report until the next
// flush even though each shard can already serve its last epoch, breaking
// the replay-free-restart invariant the unsharded server keeps. Best-effort:
// nodes that are unreachable or have no epoch yet are skipped, and if none
// has a result the merged view stays empty (fresh-start behaviour).
func (c *Coordinator) SeedMerge() {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	fresh := make([]bool, len(c.nodes))
	seeded := false
	for i := range c.nodes {
		if c.fetch(i, true) {
			fresh[i], seeded = true, true
		}
	}
	if seeded {
		c.remerge(fresh)
	}
}

// Latest returns one traffic class's merged clustering ("" = the global
// merge), the merge generation, and the names of shards whose contribution
// is stale (nil result, 0 before the first merge).
func (c *Coordinator) Latest(class string) (*core.Result, int64, []string) {
	c.mergeMu.RLock()
	defer c.mergeMu.RUnlock()
	if class == "" {
		return c.merged, c.gen, c.stale
	}
	return c.mergedClass[class], c.gen, c.stale
}

// MergeIsExact reports whether relation-set sharding provably reproduced a
// single batch clustering, from the eps the shards clustered at and the
// largest relation set routed.
func (c *Coordinator) MergeIsExact() bool {
	eps, ok := c.shardEps()
	return ok && core.MergeExact(eps, c.router.MaxRels())
}

// shardEps returns the one eps every cached shard result reports it
// clustered at (ChosenEps). ok is false when no shard has clustered yet or
// two shards disagree.
func (c *Coordinator) shardEps() (eps float64, ok bool) {
	c.mergeMu.RLock()
	defer c.mergeMu.RUnlock()
	for _, r := range c.lastResults {
		if r == nil || r.ChosenEps == 0 {
			continue
		}
		if eps != 0 && r.ChosenEps != eps {
			return 0, false
		}
		eps = r.ChosenEps
	}
	return eps, eps > 0
}

// MergedStats sums the per-shard pipeline statistics from the last flush.
func (c *Coordinator) MergedStats() *qlog.Stats {
	c.mergeMu.RLock()
	defer c.mergeMu.RUnlock()
	st := &qlog.Stats{}
	for _, s := range c.lastStats {
		st.Merge(s)
	}
	return st
}

// ShardStatus is one row of GET /shard/status.
type ShardStatus struct {
	Index      int    `json:"index"`
	Name       string `json:"name"`
	Down       bool   `json:"down"`
	Stale      bool   `json:"stale"`
	QueueDepth int    `json:"queue_depth"`
	Enqueued   int64  `json:"enqueued"`
	Forwarded  int64  `json:"forwarded"`
	Dropped    int64  `json:"dropped,omitempty"`
	Load       int64  `json:"routed_load"`
}

// Status snapshots every shard's routing and delivery state.
func (c *Coordinator) Status() []ShardStatus {
	loads := c.router.Loads()
	c.mergeMu.RLock()
	staleSet := make(map[string]bool, len(c.stale))
	for _, name := range c.stale {
		staleSet[name] = true
	}
	c.mergeMu.RUnlock()
	out := make([]ShardStatus, len(c.nodes))
	for i, node := range c.nodes {
		out[i] = ShardStatus{
			Index:      i,
			Name:       node.Name(),
			Down:       c.down[i].Load(),
			Stale:      staleSet[node.Name()],
			QueueDepth: len(c.queues[i]),
			Enqueued:   c.enqueued[i].Load(),
			Forwarded:  c.forwarded[i].Load(),
			Dropped:    c.dropped[i].Load(),
		}
		if i < len(loads) {
			out[i].Load = loads[i]
		}
	}
	return out
}

// Close stops admission, binds and delivers any still-staged records, lets
// the senders deliver (or, for shards that stay down, abandon) the buffered
// backlog, stops the health loop, closes every node — LocalNodes drain and
// snapshot their embedded servers — and persists the router assignment and
// the per-shard routing offsets.
func (c *Coordinator) Close() error {
	c.ingestMu.Lock()
	if c.closed {
		c.ingestMu.Unlock()
		<-c.healthDone
		return nil
	}
	c.closed = true
	c.bindStagedLocked()
	c.ingestMu.Unlock()
	// Push the bind-time backlog into the queues as the senders free space.
	// Bounded: a shard that stays down keeps a full queue, so its backlog is
	// eventually abandoned alongside the queued records the sender drops.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.ingestMu.Lock()
		remaining := 0
		for i := range c.pending {
			c.drainPendingLocked(i)
			remaining += len(c.pending[i])
		}
		c.ingestMu.Unlock()
		if remaining == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.ingestMu.Lock()
	for i := range c.pending {
		if m := len(c.pending[i]); m > 0 {
			c.dropped[i].Add(int64(m))
			c.pending[i] = nil
		}
	}
	c.pendingN = 0
	for _, q := range c.queues {
		close(q)
	}
	c.ingestMu.Unlock()
	c.senderWG.Wait()
	close(c.stopHealth)
	<-c.healthDone
	var wg sync.WaitGroup
	errs := make([]error, len(c.nodes))
	for i, node := range c.nodes {
		wg.Add(1)
		go func(i int, node Node) {
			defer wg.Done()
			errs[i] = node.Close()
		}(i, node)
	}
	wg.Wait()
	if err := c.persistState(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the coordinator's HTTP surface: serve's shared handler set
// (serve.NewMux — /ingest, /flush, /report, /drift, /interfaces, /stats,
// /metrics, /debug/slowlog, /healthz), so clients (loggen, curl scripts,
// dashboards) work unchanged against a single node or a coordinator, plus
//
//	GET  /shard/status  per-shard liveness and delivery state
//
// /report additionally carries X-Stale-Shards (shards serving last-known
// results) and X-Merge-Exact (the equivalence guarantee). /query, /remine
// and /snapshot stay single-node. Like a node's, the surface sits behind
// serve.Guard (POST body limit, panic recovery).
func (c *Coordinator) Handler() http.Handler {
	mux := serve.NewMux(c, nil, report.Options{Coverage: c.cfg.Coverage != nil})
	mux.HandleFunc("/shard/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{"shards": c.Status()})
	})
	return serve.Guard(mux)
}

// Commit is a no-op: the coordinator logs nothing; each shard runs its own
// durability barrier before acknowledging a forwarded batch.
func (c *Coordinator) Commit(int) error { return nil }

// FlushJSON is the /flush reply body.
func (c *Coordinator) FlushJSON() map[string]any {
	merged, gen, stale := c.Latest("")
	reply := map[string]any{"generation": gen, "stale_shards": stale}
	if merged != nil {
		reply["distinct_areas"] = merged.DistinctAreas
		reply["clusters"] = len(merged.Clusters)
	}
	return reply
}

// StatsJSON is the /stats reply body: merged pipeline statistics plus the
// per-shard breakdown from the last flush.
func (c *Coordinator) StatsJSON() map[string]any {
	merged, gen, _ := c.Latest("")
	perShard := make(map[string]any, len(c.nodes))
	c.mergeMu.RLock()
	for i, node := range c.nodes {
		if c.lastStats[i] != nil {
			perShard[node.Name()] = c.lastStats[i]
		}
	}
	c.mergeMu.RUnlock()
	reply := map[string]any{
		"pipeline":   c.MergedStats(),
		"generation": gen,
		"accepted":   c.accepted.Load(),
		"rejected":   c.rejected.Load(),
		"per_shard":  perShard,
	}
	if merged != nil {
		reply["distinct_areas"] = merged.DistinctAreas
	}
	return reply
}

// MetricsJSON is the /metrics reply body: admission, routing overhead,
// merge state and per-shard queue counters.
func (c *Coordinator) MetricsJSON() map[string]any {
	uptime := time.Since(c.start).Seconds()
	accepted := c.accepted.Load()
	rate := 0.0
	if uptime > 0 {
		rate = float64(accepted) / uptime
	}
	routed := c.router.Routed()
	routeNS := c.router.RouteNanos()
	perRecord := 0.0
	if routed > 0 {
		perRecord = float64(routeNS) / float64(routed)
	}
	_, gen, stale := c.Latest("")
	metrics := map[string]any{
		"uptime_seconds":        uptime,
		"ingest_accepted":       accepted,
		"ingest_rejected":       c.rejected.Load(),
		"ingest_rate_per_sec":   rate,
		"shards":                len(c.nodes),
		"merge_generation":      gen,
		"stale_shards":          len(stale),
		"merge_exact":           c.MergeIsExact(),
		"forward_retries":       c.retries.Load(),
		"route_records":         routed,
		"route_total_ns":        routeNS,
		"route_ns_per_record":   perRecord,
		"route_full_parses":     c.router.FullParses(),
		"route_max_relations":   c.router.MaxRels(),
		"template_cache_len":    c.router.Cache().Len(),
		"template_cache_hits":   c.router.Cache().Hits(),
		"template_cache_misses": c.router.Cache().Misses(),
	}
	if c.cfg.Traffic {
		c.mergeMu.RLock()
		metrics["traffic_drift_events"] = len(c.mergedDrift)
		metrics["traffic_interfaces_tracked"] = c.ifaceTracked
		c.mergeMu.RUnlock()
	}
	for _, st := range c.Status() {
		prefix := "shard_" + strconv.Itoa(st.Index) + "_"
		metrics[prefix+"queue_depth"] = st.QueueDepth
		metrics[prefix+"enqueued"] = st.Enqueued
		metrics[prefix+"forwarded"] = st.Forwarded
		metrics[prefix+"down"] = st.Down
		metrics[prefix+"routed_load"] = st.Load
	}
	return metrics
}
