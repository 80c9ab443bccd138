package interestcache

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aggregate"
	"repro/internal/extract"
	"repro/internal/memdb"
	"repro/internal/obs"
	"repro/internal/sqlparser"
)

// Semantic-cache instruments: lookup and prefetch latency histograms in the
// Default registry, plus slow-query-log entries covering the full
// extraction+execution time of each Query, keyed by statement fingerprint
// (never raw SQL).
var (
	queryStage    = obs.NewStage("interestcache_query")
	lookupStage   = obs.NewStage("interestcache_lookup")
	prefetchStage = obs.NewStage("interestcache_prefetch")

	prefetchRegionsTotal = obs.NewCounter("skyaccess_interestcache_prefetch_regions_total",
		"region stores Install built from the database")
	prefetchCarriedTotal = obs.NewCounter("skyaccess_interestcache_prefetch_regions_carried_total",
		"resident regions Install carried with their store because their identity was unchanged")
)

// Config wires a Cache to its data source and extraction path.
type Config struct {
	// DB is the authoritative database: the prefetch source and the
	// fall-through execution target. Region stores share its rows, so it
	// must not be written while the cache serves.
	DB *memdb.DB
	// Extractor maps statements to access areas; give it the miner's
	// schema. Its Stats registry, if any, is ignored: queries never observe
	// into access(a).
	Extractor *extract.Extractor
	// Templates is the exact-statement memo and fingerprint → template
	// cache. Share the pipeline's instance so statements and templates
	// warmed by ingestion serve queries.
	Templates *extract.TemplateCache
	// Exec is applied identically to region-store and direct execution.
	Exec memdb.ExecOptions
	// Verify enables the correctness oracle: every cache-served result is
	// checked byte-for-byte against direct execution, and on mismatch the
	// direct result is returned and the failure counted. For tests and
	// skyserved -query-verify.
	Verify bool
}

// snapshot is one epoch's immutable region set. Queries load it once and use
// it throughout; Install publishes a fresh snapshot atomically, so a
// re-cluster never mixes regions of different generations in one lookup.
type snapshot struct {
	generation int64
	regions    []*Region
	index      *containmentIndex
	// bytesResident totals the stores' logical cell size (Region.Bytes).
	bytesResident int64
}

// Cache is the semantic result cache. Zero value is not usable; construct
// with New.
type Cache struct {
	cfg  Config
	snap atomic.Pointer[snapshot]

	// installMu serialises Install.
	installMu sync.Mutex

	// shapes records, per statement fingerprint, the statement's shape
	// class (safe / aggregate / unsafe — see shapeClassOf). The verdict is
	// shape-level, so it is shared by all statements with the fingerprint.
	shapes sync.Map // uint64 → shapeClass

	hits          atomic.Int64
	misses        atomic.Int64
	bytesServed   atomic.Int64
	verifyChecked atomic.Int64
	verifyFailed  atomic.Int64
	aggHits       atomic.Int64
	reused        atomic.Int64
}

// shapeClass is a statement shape's cache verdict.
type shapeClass int

const (
	shapeUnsafe shapeClass = iota
	shapeSafe              // servable from any containing restricted store
	shapeAgg               // HAVING class: servable via the aggregate path
)

// New returns a cache with an empty region set (every query misses until the
// first Install).
func New(cfg Config) *Cache {
	if cfg.Extractor != nil {
		// Answering a query must not grow access(a): the registry is the
		// miner's, fed only by logged statements (§5.3), so the cache
		// extracts through a copy that observes nothing.
		ex := *cfg.Extractor
		ex.Stats = nil
		cfg.Extractor = &ex
	}
	c := &Cache{cfg: cfg}
	c.snap.Store(&snapshot{})
	return c
}

// Install prefetches a region for every cluster and atomically replaces the
// served snapshot. Every candidate region is resident. A region whose
// identity is unchanged since the previous generation is carried with its
// store: the identity fixes the row set, and DB is never written while the
// cache serves, so the carried store is exactly what a rebuild would
// produce. Clusters with no relations or an unset box are skipped (they
// describe nothing prefetchable).
func (c *Cache) Install(generation int64, clusters []*aggregate.Summary) {
	sp := prefetchStage.Start()
	defer sp.End()
	c.installMu.Lock()
	defer c.installMu.Unlock()
	prev := c.snap.Load()
	prevByIdentity := make(map[string]*Region, len(prev.regions))
	for _, r := range prev.regions {
		prevByIdentity[r.identity] = r
	}

	snap := &snapshot{generation: generation}
	for _, cl := range clusters {
		if cl == nil || len(cl.Relations) == 0 || cl.Box == nil {
			continue
		}
		var r *Region
		if p, ok := prevByIdentity[identityOf(cl.Relations, cl.Box, cl.Categorical)]; ok {
			r = carryRegion(p, cl.ID, generation)
			c.reused.Add(1)
			prefetchCarriedTotal.Add(1)
		} else {
			r = newRegion(c.cfg.DB, generation, cl)
			prefetchRegionsTotal.Add(1)
		}
		snap.regions = append(snap.regions, r)
		snap.bytesResident += r.Bytes
	}
	snap.index = buildIndex(snap.regions)
	c.snap.Store(snap)
}

// Info describes how a query was answered.
type Info struct {
	// Hit is true when the result came from cached region stores.
	Hit bool
	// RegionID is the serving region's cluster ID (hits only).
	RegionID int
	// Path labels how a hit was answered: "single" (the statement on one
	// containing region) or "agg" (a HAVING aggregate statement on one
	// region containing its WHERE-only area).
	Path string
	// Generation is the region-set generation consulted.
	Generation int64
	// Reason explains a miss: "no-regions", "fingerprint", "parse",
	// "shape", "uncacheable", "inexact", "empty-area", "no-region",
	// "exec-error" (a containing region's store rejected the statement and
	// so did direct execution), "store-error" (the store failed where
	// direct execution succeeds), "verify-failed".
	Reason string
}

// Query answers sql from a cached region when containment proves it sound —
// one region containing the statement's access area, or, for the HAVING
// class, one region containing its WHERE-only area — falling through to
// direct execution otherwise. The result is identical to direct execution
// either way (enforced by the Verify oracle when enabled). Errors mirror
// direct execution: a statement that fails directly fails here with the
// same error.
func (c *Cache) Query(sql string) (*memdb.ResultSet, Info, error) {
	sp := queryStage.Start()
	t0 := time.Now()
	var fp uint64
	defer func() {
		sp.End()
		// The slow log covers the whole call — extraction through execution
		// on either the hit or the fall-through path — under the statement's
		// fingerprint (0 when the statement never fingerprinted).
		obs.DefaultSlowLog.Record("query", fp, time.Since(t0))
	}()
	snap := c.snap.Load()
	info := Info{Generation: snap.generation}
	if len(snap.regions) == 0 {
		return c.miss(sql, info, "no-regions")
	}
	lsp := lookupStage.Start()
	area, afp, reason := c.lookupArea(sql)
	lsp.End()
	fp = afp
	if reason == "agg" {
		return c.queryAgg(snap, sql, info)
	}
	if reason != "" {
		return c.miss(sql, info, reason)
	}
	shape := newQueryShape(area)
	if region := snap.index.lookup(shape); region != nil {
		rs, err := region.store.ExecuteSQL(sql, c.cfg.Exec)
		if err != nil {
			// The store is a subset view; any store-side failure (row limit,
			// evaluation error) might not occur directly, so never surface it.
			return c.miss(sql, info, "store-error")
		}
		return c.finishHit(sql, rs, info, "single", region)
	}
	return c.miss(sql, info, "no-region")
}

// queryAgg serves the HAVING aggregate class. Containment is decided on the
// WHERE-only access area — the statement with HAVING stripped — which is
// exactly the row set the aggregation consumes, so any store that is a
// superset-in-order of those rows computes every group and aggregate
// identically to direct execution (DESIGN.md §17).
func (c *Cache) queryAgg(snap *snapshot, sql string, info Info) (*memdb.ResultSet, Info, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return c.miss(sql, info, "parse")
	}
	sel, ok := stmt.(*sqlparser.SelectStatement)
	if !ok {
		return c.miss(sql, info, "parse")
	}
	whereOnly := *sel
	whereOnly.Having = nil
	area, err := c.cfg.Extractor.Extract(&whereOnly)
	if err != nil || area == nil {
		return c.miss(sql, info, "uncacheable")
	}
	switch {
	case !area.Exact || area.Truncated || len(area.Relations) == 0:
		return c.miss(sql, info, "inexact")
	case area.IsEmpty():
		return c.miss(sql, info, "empty-area")
	}
	shape := newQueryShape(area)
	if region := snap.index.lookup(shape); region != nil {
		rs, err := region.store.ExecuteSQL(sql, c.cfg.Exec)
		if err != nil {
			return c.miss(sql, info, "store-error")
		}
		return c.finishHit(sql, rs, info, "agg", region)
	}
	return c.miss(sql, info, "no-region")
}

// finishHit verifies (when configured), credits counters, and fills Info
// for a hit the region answered via the given path.
func (c *Cache) finishHit(sql string, rs *memdb.ResultSet, info Info, path string, region *Region) (*memdb.ResultSet, Info, error) {
	if c.cfg.Verify {
		c.verifyChecked.Add(1)
		direct, derr := c.cfg.DB.ExecuteSQL(sql, c.cfg.Exec)
		if derr != nil || string(EncodeResultSet(direct)) != string(EncodeResultSet(rs)) {
			c.verifyFailed.Add(1)
			info.Reason = "verify-failed"
			c.misses.Add(1)
			return direct, info, derr
		}
	}
	n := resultBytes(rs)
	region.hits.Add(1)
	region.bytesServed.Add(n)
	c.hits.Add(1)
	c.bytesServed.Add(n)
	if path == "agg" {
		c.aggHits.Add(1)
	}
	info.Hit = true
	info.Path = path
	info.RegionID = region.ID
	return rs, info, nil
}

func (c *Cache) miss(sql string, info Info, reason string) (*memdb.ResultSet, Info, error) {
	c.misses.Add(1)
	rs, err := c.cfg.DB.ExecuteSQL(sql, c.cfg.Exec)
	if err != nil && reason == "store-error" {
		// Direct execution rejects the statement too: the statement is at
		// fault, not the store.
		reason = "exec-error"
	}
	info.Reason = reason
	return rs, info, err
}

// lookupArea resolves sql to an access area through the shared extraction
// ladder (extract.TemplateCache.Resolve: memo, template rebind, full
// extraction), after the statement's shape verdict — parsed once per
// fingerprint — admits it. A non-empty reason means the statement cannot be
// served from this path; the special reason "agg" routes the statement to
// the aggregate path instead. The statement fingerprint is returned either
// way (0 when the lexer rejected it) so the caller can label slow-log
// entries.
func (c *Cache) lookupArea(sql string) (*extract.AccessArea, uint64, string) {
	stmt := c.cfg.Templates.Stmt(sql)
	fp, _, lexed := stmt.Fingerprint()
	if !lexed {
		return nil, fp, "fingerprint"
	}
	class, ok := c.shapes.Load(fp)
	if !ok {
		parsed, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, fp, "parse"
		}
		sel, isSel := parsed.(*sqlparser.SelectStatement)
		if !isSel {
			return nil, fp, "parse"
		}
		class = shapeClassOf(sel)
		c.shapes.Store(fp, class)
	}
	switch class.(shapeClass) {
	case shapeAgg:
		return nil, fp, "agg"
	case shapeUnsafe:
		return nil, fp, "shape"
	}
	o, _, _, _ := c.cfg.Templates.Resolve(c.cfg.Extractor, sql, stmt)
	area := o.Area
	switch {
	case o.ParseFailCat != "":
		return nil, fp, "parse"
	case area == nil:
		return nil, fp, "uncacheable"
	case !area.Exact || area.Truncated:
		return nil, fp, "inexact"
	case area.IsEmpty():
		return nil, fp, "empty-area"
	case len(area.Relations) == 0:
		return nil, fp, "inexact"
	}
	return area, fp, ""
}

// shapeClassOf classifies a statement: safe shapes serve from any
// containing restricted store; the aggregate class — a top-level HAVING on
// an otherwise safe, union-free statement — serves via the WHERE-only-area
// aggregate path; everything else is uncacheable by shape.
func shapeClassOf(sel *sqlparser.SelectStatement) shapeClass {
	if safeShape(sel) {
		return shapeSafe
	}
	// The HAVING must be subquery-free: the agg path decides containment on
	// the WHERE-only area, which never sees a HAVING subquery, so one would
	// silently execute against the restricted store.
	if sel != nil && sel.Having != nil && len(sel.Unions) == 0 &&
		safeExpr(sel.Having) && !exprHasSubquery(sel.Having) {
		whereOnly := *sel
		whereOnly.Having = nil
		if safeShape(&whereOnly) {
			return shapeAgg
		}
	}
	return shapeUnsafe
}

// safeShape reports whether a statement may be answered from a restricted
// row store when its access area is exact and contained in the store's
// region. Almost every construct is safe — the extraction's Exact flag
// already excludes approximated shapes, and row order is preserved by the
// store so TOP/ORDER BY/DISTINCT agree — with two exceptions the Exact flag
// does not see:
//
//   - HAVING with an aggregate comparison: extraction maps e.g.
//     "HAVING MAX(x) > c" to the row-level predicate "x > c", which bounds
//     the rows CONTRIBUTING the extreme but not every row of a qualifying
//     group; the group's other rows fall outside the area, so a restricted
//     store computes different aggregates. (The mapping is marked noCache,
//     not approximate, so Exact survives.) The aggregate path (queryAgg)
//     recovers this class by re-deciding containment on the WHERE-only
//     area.
//   - Derived tables "(SELECT ...) t": their inner projection feeds the
//     outer query rows whose provenance the area does not bound
//     conservatively in all compositions; rejected outright.
//
// The walk covers union arms, join trees, and every subquery position.
func safeShape(sel *sqlparser.SelectStatement) bool {
	if sel == nil {
		return true
	}
	if sel.Having != nil {
		return false
	}
	for _, te := range sel.From {
		if !safeTableExpr(te) {
			return false
		}
	}
	exprs := []sqlparser.Expr{sel.Where}
	for _, it := range sel.Select {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, sel.GroupBy...)
	for _, oi := range sel.OrderBy {
		exprs = append(exprs, oi.Expr)
	}
	for _, e := range exprs {
		if !safeExpr(e) {
			return false
		}
	}
	for _, arm := range sel.Unions {
		if !safeShape(arm.Select) {
			return false
		}
	}
	return true
}

func safeTableExpr(te sqlparser.TableExpr) bool {
	switch t := te.(type) {
	case *sqlparser.SubqueryTable:
		return false
	case *sqlparser.Join:
		return safeTableExpr(t.Left) && safeTableExpr(t.Right) && safeExpr(t.On)
	default:
		return true
	}
}

func safeExpr(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *sqlparser.BinaryExpr:
		return safeExpr(x.L) && safeExpr(x.R)
	case *sqlparser.UnaryExpr:
		return safeExpr(x.X)
	case *sqlparser.BetweenExpr:
		return safeExpr(x.X) && safeExpr(x.Lo) && safeExpr(x.Hi)
	case *sqlparser.InListExpr:
		if !safeExpr(x.X) {
			return false
		}
		for _, it := range x.List {
			if !safeExpr(it) {
				return false
			}
		}
		return true
	case *sqlparser.InSubqueryExpr:
		return safeExpr(x.X) && safeShape(x.Sub)
	case *sqlparser.ExistsExpr:
		return safeShape(x.Sub)
	case *sqlparser.QuantifiedExpr:
		return safeExpr(x.X) && safeShape(x.Sub)
	case *sqlparser.ScalarSubquery:
		return safeShape(x.Sub)
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if !safeExpr(a) {
				return false
			}
		}
		return true
	case *sqlparser.LikeExpr:
		return safeExpr(x.X) && safeExpr(x.Pattern)
	case *sqlparser.IsNullExpr:
		return safeExpr(x.X)
	case *sqlparser.CaseExpr:
		if !safeExpr(x.Operand) || !safeExpr(x.Else) {
			return false
		}
		for _, w := range x.Whens {
			if !safeExpr(w.When) || !safeExpr(w.Then) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// exprHasSubquery reports whether any subquery construct appears in e.
func exprHasSubquery(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *sqlparser.InSubqueryExpr, *sqlparser.ExistsExpr,
		*sqlparser.QuantifiedExpr, *sqlparser.ScalarSubquery:
		return true
	case *sqlparser.BinaryExpr:
		return exprHasSubquery(x.L) || exprHasSubquery(x.R)
	case *sqlparser.UnaryExpr:
		return exprHasSubquery(x.X)
	case *sqlparser.BetweenExpr:
		return exprHasSubquery(x.X) || exprHasSubquery(x.Lo) || exprHasSubquery(x.Hi)
	case *sqlparser.InListExpr:
		if exprHasSubquery(x.X) {
			return true
		}
		for _, it := range x.List {
			if exprHasSubquery(it) {
				return true
			}
		}
		return false
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if exprHasSubquery(a) {
				return true
			}
		}
		return false
	case *sqlparser.LikeExpr:
		return exprHasSubquery(x.X) || exprHasSubquery(x.Pattern)
	case *sqlparser.IsNullExpr:
		return exprHasSubquery(x.X)
	case *sqlparser.CaseExpr:
		if exprHasSubquery(x.Operand) || exprHasSubquery(x.Else) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasSubquery(w.When) || exprHasSubquery(w.Then) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// Metrics is a point-in-time counter snapshot.
type Metrics struct {
	Generation    int64           `json:"generation"`
	Regions       int             `json:"regions"`
	BytesResident int64           `json:"bytes_resident"`
	Hits          int64           `json:"hits"`
	Misses        int64           `json:"misses"`
	BytesServed   int64           `json:"bytes_served"`
	VerifyChecked int64           `json:"verify_checked"`
	VerifyFailed  int64           `json:"verify_failed"`
	AggHits       int64           `json:"agg_hits"`
	Reused        int64           `json:"reused"`
	PerRegion     []RegionMetrics `json:"per_region"`
}

// RegionMetrics are the per-region serving counters of the CURRENT region
// set; counters reset on Install, which gives built and carried regions
// fresh ones.
type RegionMetrics struct {
	ID          int     `json:"id"`
	Rows        int     `json:"rows"`
	Bytes       int64   `json:"bytes"`
	Hits        int64   `json:"hits"`
	BytesServed int64   `json:"bytes_served"`
	AgeSeconds  float64 `json:"age_seconds"`
}

// Metrics returns the current counters and per-region statistics.
func (c *Cache) Metrics() Metrics {
	snap := c.snap.Load()
	m := Metrics{
		Generation:    snap.generation,
		Regions:       len(snap.regions),
		BytesResident: snap.bytesResident,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		BytesServed:   c.bytesServed.Load(),
		VerifyChecked: c.verifyChecked.Load(),
		VerifyFailed:  c.verifyFailed.Load(),
		AggHits:       c.aggHits.Load(),
		Reused:        c.reused.Load(),
	}
	for _, r := range snap.regions {
		m.PerRegion = append(m.PerRegion, RegionMetrics{
			ID: r.ID, Rows: r.Rows, Bytes: r.Bytes,
			Hits: r.Hits(), BytesServed: r.BytesServed(),
			AgeSeconds: r.Age().Seconds(),
		})
	}
	return m
}

// Generation returns the current region-set generation.
func (c *Cache) Generation() int64 { return c.snap.Load().generation }

// Regions returns the current region set (read-only).
func (c *Cache) Regions() []*Region { return c.snap.Load().regions }

// EncodeResultSet renders a result set into a canonical byte string: column
// names, then row-major cells, each value tagged by kind with numbers as
// IEEE-754 bits and strings length-prefixed. Two result sets are
// byte-identical under this encoding iff they have the same columns and the
// same rows in the same order — the oracle's definition of "identical".
func EncodeResultSet(rs *memdb.ResultSet) []byte {
	if rs == nil {
		return nil
	}
	var buf []byte
	appendStr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		buf = append(buf, n[:]...)
		buf = append(buf, s...)
	}
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(rs.Columns)))
	buf = append(buf, n[:]...)
	for _, col := range rs.Columns {
		appendStr(col)
	}
	for _, row := range rs.Rows {
		for _, v := range row {
			buf = append(buf, byte(v.Kind))
			switch v.Kind {
			case memdb.Num:
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Num))
				buf = append(buf, b[:]...)
			case memdb.Str:
				appendStr(v.Str)
			}
		}
		buf = append(buf, '\n')
	}
	return buf
}

func resultBytes(rs *memdb.ResultSet) int64 {
	if rs == nil {
		return 0
	}
	var n int64
	for _, row := range rs.Rows {
		n += rowBytes(row)
	}
	return n
}

// rowBytes is a row's logical cell size: a 1-byte kind tag per cell, plus
// 8 per number and the length of each string.
func rowBytes(row []memdb.Value) int64 {
	n := int64(len(row))
	for _, v := range row {
		switch v.Kind {
		case memdb.Num:
			n += 8
		case memdb.Str:
			n += int64(len(v.Str))
		}
	}
	return n
}
