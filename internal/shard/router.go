package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/extract"
	"repro/internal/qlog"
	"repro/internal/schema"
)

// Router maps each ingested record to the shard that owns its relation set.
//
// The key insight is that routing reuses the serve layer's template cache:
// a statement shape's FROM clause is literal-independent, so once any record
// of a fingerprint class has been extracted, every later record of the class
// routes on the cached template's precomputed RouteKey — a fingerprint plus
// one map lookup, no parse — and a text already extracted routes on its
// memoised area. A miss runs the shared extraction ladder
// (extract.TemplateCache.Resolve), which WARMS the cache: in the in-process
// topology it is the very cache the owning shard's pipeline reads, so the
// shard then replays the memoised outcome instead of re-parsing.
//
// Relation-set keys bind to shards in two phases. Binding a key the moment
// it is first seen is blind — every heavy key appears within the first few
// hundred records, before per-shard loads say anything — and blind binding
// measurably co-locates heavy keys (49% max work share at 4 shards on the
// synthetic 20k workload vs the 27% optimum). So the router STAGES instead:
// during warmup (the first Config-set number of area-bearing records) Route
// returns ShardStaged and only counts the key's records; when the horizon is
// reached, BindAll packs the staged keys onto shards greedily in descending
// observed-count order — on a stationary workload the warmup counts are rate
// estimates, so this reproduces near-optimal bin packing. Keys first seen
// after warmup bind immediately to the least-loaded shard (by routed-record
// load); on this side of the horizon they are dust. The caller (the
// coordinator) buffers staged records per key and flushes each key's buffer
// to its shard at bind time, which preserves per-key record order — the
// property cluster-exactness actually needs.
//
// Every binding is sticky (exactness depends on one shard owning each key)
// and survives restarts via SaveState/LoadState — re-deriving it from a
// different arrival order after a restart would strand each shard's restored
// areas under newly re-routed keys and double-count them. A restored router
// skips warmup: restored keys route immediately, novel keys bind
// least-loaded.
//
// Records that yield no access area (parse failures, non-SELECTs, failed
// extractions) only bump per-shard pipeline counters, which merge
// commutatively, so they are spread by fingerprint hash and excluded from
// the load balance.
type Router struct {
	n      int
	cache  *extract.TemplateCache
	ex     *extract.Extractor
	warmup int

	mu      sync.Mutex
	assign  map[string]int
	load    []int64
	maxRels int
	staged  map[string]int64 // per-key record counts while unbound
	warmed  int64            // area-bearing records routed during warmup
	binding bool             // warmup horizon crossed, BindAll not yet called

	routed     atomic.Int64
	routeNanos atomic.Int64
	fullParses atomic.Int64
}

// ShardStaged is Route's answer while the record's key is still unbound
// during warmup: the caller must buffer the record per key and deliver the
// buffer when BindAll assigns the key.
const ShardStaged = -1

// DefaultWarmup is the staging horizon (area-bearing records) when
// NewRouter's warmup argument is 0.
const DefaultWarmup = 1024

// NewRouter builds a router over n shards. cache may be shared with
// in-process shard servers (see serve.Config.Templates) or private in the
// multi-node topology. The router's extractor deliberately carries NO stats
// registry: value observation is the owning shard's job, and in the shared
// in-process registry it must happen exactly once per record.
//
// warmup is the staging horizon in area-bearing records: 0 means
// DefaultWarmup, negative disables staging (every key binds least-loaded the
// moment it is first seen — the blind policy, kept for single-shard routers
// where packing is moot).
func NewRouter(n int, sch *schema.Schema, cache *extract.TemplateCache, warmup int) *Router {
	if n < 1 {
		n = 1
	}
	if cache == nil {
		cache = &extract.TemplateCache{}
	}
	switch {
	case warmup == 0:
		warmup = DefaultWarmup
	case warmup < 0:
		warmup = 0
	}
	if n == 1 {
		// One shard: nothing to pack, don't make the caller buffer.
		warmup = 0
	}
	return &Router{
		n:      n,
		cache:  cache,
		ex:     &extract.Extractor{Schema: sch},
		warmup: warmup,
		assign: make(map[string]int),
		load:   make([]int64, n),
		staged: make(map[string]int64),
	}
}

// Cache exposes the template cache so in-process shard servers can share it.
func (r *Router) Cache() *extract.TemplateCache { return r.cache }

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// Route returns the shard index (0..n-1) that owns rec, plus the record's
// relation-set key ("" when the record carries no area and was spread by
// hash). During warmup the shard is ShardStaged: the caller must buffer the
// record under the returned key and deliver the buffer when BindAll assigns
// it (see the type comment).
//
// The router lexes through the exact-statement memo and attaches the entry
// to rec (unless it carries one already): an in-process shard, which shares
// the router's cache, admits and extracts it without looking the text up
// again. A text with a memoised outcome routes on its area, a fingerprint
// with a cached template on the template's RouteKey; any other record runs
// the shared extraction ladder, whose outcome the shard then replays.
func (r *Router) Route(rec *qlog.Record) (int, string) {
	t0 := time.Now()
	defer func() {
		r.routeNanos.Add(time.Since(t0).Nanoseconds())
		r.routed.Add(1)
	}()
	if rec.Stmt == nil {
		rec.Stmt = r.cache.Stmt(rec.SQL)
	}
	fp, _, lexed := rec.Stmt.Fingerprint()
	if !lexed {
		// Lexically broken statement: counter-only, any shard. Hash the text
		// itself so the choice is deterministic for a given record.
		h := fnv.New64a()
		_, _ = h.Write([]byte(rec.SQL))
		return int(h.Sum64() % uint64(r.n)), ""
	}
	o := rec.Stmt.Outcome()
	if o == nil {
		if t, ok := r.cache.Get(fp); ok {
			return r.byRouteKey(t.RouteKey(), fp)
		}
		r.fullParses.Add(1)
		o, _, _, _ = r.cache.Resolve(r.ex, rec.SQL, rec.Stmt)
	}
	key := ""
	if o.Area != nil {
		key = extract.RelationSetKey(o.Area.Relations)
	}
	return r.byRouteKey(key, fp)
}

// byRouteKey routes an area-bearing record by its relation-set key and a
// record without one (key "") by fingerprint hash.
func (r *Router) byRouteKey(key string, fp uint64) (int, string) {
	if key == "" {
		return int(fp % uint64(r.n)), ""
	}
	return r.byKey(key), key
}

// byKey resolves the sticky assignment for one relation-set key, staging the
// record when the key is still unbound during warmup, and charges bound
// records to the owner's load.
func (r *Router) byKey(key string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Relation names are normalised identifiers (no commas), so the key's
	// comma count recovers the set size for the MergeExact guard.
	if rels := strings.Count(key, ",") + 1; rels > r.maxRels {
		r.maxRels = rels
	}
	if shardIdx, ok := r.assign[key]; ok {
		r.load[shardIdx]++
		return shardIdx
	}
	if r.warmup > 0 && r.warmed < int64(r.warmup) {
		r.staged[key]++
		r.warmed++
		if r.warmed >= int64(r.warmup) {
			r.binding = true
		}
		return ShardStaged
	}
	shardIdx := r.leastLoadedLocked()
	r.assign[key] = shardIdx
	r.load[shardIdx]++
	return shardIdx
}

// leastLoadedLocked picks the shard with the fewest routed records; caller
// holds r.mu.
func (r *Router) leastLoadedLocked() int {
	shardIdx := 0
	for i := 1; i < r.n; i++ {
		if r.load[i] < r.load[shardIdx] {
			shardIdx = i
		}
	}
	return shardIdx
}

// NeedsBind reports whether the warmup horizon has been crossed and BindAll
// has not yet run. The coordinator checks it after every staged Route;
// Flush/Close call BindAll unconditionally so staged buffers never outlive a
// run that ends short of the horizon.
func (r *Router) NeedsBind() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.binding
}

// BindAll ends warmup: the staged keys are packed onto shards greedily in
// descending observed-count order (ties broken by key, so the packing is
// deterministic for a given workload), each shard's load is charged with the
// staged records, and the new key→shard assignments are returned so the
// caller can deliver each key's buffered records to its owner. After BindAll
// the router never stages again — unseen keys bind least-loaded on sight.
func (r *Router) BindAll() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.warmup = 0
	r.binding = false
	if len(r.staged) == 0 {
		return nil
	}
	keys := make([]string, 0, len(r.staged))
	for k := range r.staged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if r.staged[keys[i]] != r.staged[keys[j]] {
			return r.staged[keys[i]] > r.staged[keys[j]]
		}
		return keys[i] < keys[j]
	})
	bound := make(map[string]int, len(keys))
	for _, k := range keys {
		shardIdx := r.leastLoadedLocked()
		r.assign[k] = shardIdx
		r.load[shardIdx] += r.staged[k]
		bound[k] = shardIdx
	}
	r.staged = make(map[string]int64)
	return bound
}

// MaxRels returns the largest relation-set size routed so far — the
// maxTables input to core.MergeExact.
func (r *Router) MaxRels() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.maxRels
}

// Loads returns a copy of the per-shard routed-record loads.
func (r *Router) Loads() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.load))
	copy(out, r.load)
	return out
}

// Routed returns the total records routed; RouteNanos the cumulative time
// spent inside Route — together they quantify routing overhead.
func (r *Router) Routed() int64     { return r.routed.Load() }
func (r *Router) RouteNanos() int64 { return r.routeNanos.Load() }

// FullParses returns how many cache misses paid a full parse in the router.
func (r *Router) FullParses() int64 { return r.fullParses.Load() }

// routerState is the persisted assignment (JSON: small, diffable, and the
// shard count is checked on restore).
type routerState struct {
	Shards  int            `json:"shards"`
	Assign  map[string]int `json:"assign"`
	Load    []int64        `json:"load"`
	MaxRels int            `json:"max_rels"`
}

// SaveState atomically persists the sticky key→shard assignment next to the
// shards' snapshots, so a restarted coordinator keeps routing every restored
// area's key to the shard that already holds it.
func (r *Router) SaveState(path string) error {
	r.mu.Lock()
	st := routerState{Shards: r.n, Assign: make(map[string]int, len(r.assign)), Load: make([]int64, len(r.load)), MaxRels: r.maxRels}
	for k, v := range r.assign {
		st.Assign[k] = v
	}
	copy(st.Load, r.load)
	r.mu.Unlock()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadState restores a saved assignment. A missing file is not an error (a
// cold start); a shard-count mismatch is (re-routing restored keys would
// silently double-count their areas).
func (r *Router) LoadState(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var st routerState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Shards != r.n {
		return fmt.Errorf("shard: router state was saved for %d shards, running %d", st.Shards, r.n)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.assign = st.Assign
	if r.assign == nil {
		r.assign = make(map[string]int)
	}
	if len(st.Load) == r.n {
		copy(r.load, st.Load)
	}
	r.maxRels = st.MaxRels
	// A restored router skips warmup: the restored keys must route to their
	// owners immediately, and staging novel keys against a mature load vector
	// would buy nothing.
	r.warmup = 0
	r.binding = false
	return nil
}
