package extract

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/predicate"
	"repro/internal/sqlparser"
)

// likeGuard is a per-record condition an AreaTemplate imposes on the LIKE
// pattern literal at Slot: the extraction maps wildcard-free patterns to
// equalities and wildcard patterns to the TRUE approximation, so a rebind is
// valid only when the record's pattern has the same wildcard-ness as the one
// the template was built from.
type likeGuard struct {
	Slot     int
	Wildcard bool
}

// AreaTemplate is the cached per-fingerprint extraction outcome of one
// statement shape (DESIGN.md §9). Statements sharing a fingerprint differ
// only in literal values, so the outcome — parse failure category, non-SELECT
// kind, extraction error, or an access area with literal slots — is shared by
// the whole class, except where a value decides the constraint's structure
// (Uncacheable) or a per-record guard fails.
//
// Exactly one outcome group applies:
//   - Uncacheable: the shape's constraint structure depends on literal
//     values; every record of the class takes the slow path.
//   - ParseFailCat != "": parsing fails, with this failure category.
//   - NonSelect: parses to a recognised non-SELECT statement.
//   - ExtractErr != nil: extraction fails with this (structural) error.
//   - otherwise: Rebind instantiates the area for a record's literals.
type AreaTemplate struct {
	Uncacheable  bool
	Reason       string
	ParseFailCat string
	NonSelect    bool
	ExtractErr   error

	// Rebind payload. constraint is the pre-CNF slot-tagged expression;
	// relations/referenced/exactBase/truncated are the value-independent
	// area fields. guards are the per-record LIKE conditions.
	constraint predicate.Expr
	relations  []string
	referenced []string
	exactBase  bool
	truncated  bool
	guards     []likeGuard

	// fast marks templates whose final consolidated CNF provably has the
	// same shape for every literal assignment (tierASafe); cnf is that CNF
	// with slots, and Rebind substitutes into a clone of it directly,
	// skipping CNF conversion and consolidation.
	fast bool
	cnf  predicate.CNF

	// order is the order plan of a template that is not tier A (nil when it
	// keeps no shapes); shapes holds the published shapes, one per order
	// pattern seen, replaced copy-on-write under shapeMu (template_shape.go).
	order   *orderPlan
	shapeMu sync.Mutex
	shapes  atomic.Pointer[[]*shape]

	// routeKey is the precomputed RelationSetKey of relations. A statement
	// shape's FROM clause is literal-independent, so the key is valid for
	// every record of the fingerprint class — including Uncacheable shapes,
	// whose CONSTRAINT structure depends on values but whose relation set
	// does not. Empty for non-area outcomes (parse failure, non-SELECT,
	// extraction error).
	routeKey string
}

// RouteKey returns the relation-set shard key shared by every record of the
// template's fingerprint class, or "" when the class produces no access area
// (and therefore contributes only summed counters, routable anywhere).
func (t *AreaTemplate) RouteKey() string { return t.routeKey }

// extractTemplate is ExtractWithTimings plus construction of the statement
// shape's reusable template. The template is never nil: on extraction error
// it records the error as the class outcome, and Uncacheable shapes get an
// explicit sentinel so the class skips template construction next time.
func (ex *Extractor) extractTemplate(sel *sqlparser.SelectStatement) (*AccessArea, Timings, *AreaTemplate, error) {
	area, tm, expr, st, err := ex.extractFull(sel)
	if err != nil {
		return nil, tm, &AreaTemplate{ExtractErr: err}, err
	}
	if !st.cacheable {
		// The sentinel still carries the class's (value-independent) relation
		// set so the shard router can key on it without re-parsing.
		return area, tm, &AreaTemplate{
			Uncacheable: true,
			Reason:      st.cacheReason,
			relations:   area.Relations,
			routeKey:    RelationSetKey(area.Relations),
		}, nil
	}
	t := &AreaTemplate{
		constraint: expr,
		relations:  area.Relations,
		referenced: area.Referenced,
		exactBase:  st.exact,
		truncated:  area.Truncated,
		guards:     st.likeGuards,
		routeKey:   RelationSetKey(area.Relations),
	}
	if tierASafe(expr, area.CNF) {
		t.fast = true
		t.cnf = area.CNF.Clone()
	} else {
		t.order = newOrderPlan(expr)
	}
	return area, tm, t, nil
}

// Rebind instantiates the template's access area for a record whose literal
// list (in lexer order, from sqlparser.Fingerprint) fills the slots. ok is
// false when the template is not rebindable (Uncacheable or a non-area
// outcome) or a per-record guard fails — the caller must take the slow path.
// Timings report where the rebind spent its time so pipeline stage counters
// stay consistent with the slow path. Relations and Referenced slices are
// shared across rebinds of one template; callers must not mutate them.
func (t *AreaTemplate) Rebind(ex *Extractor, lits []sqlparser.Literal) (*AccessArea, Timings, bool) {
	area, tm, _, ok := t.rebind(ex, lits)
	return area, tm, ok
}

// rebindTier names the rung of Rebind that served a binding.
type rebindTier int

const (
	tierA     rebindTier = iota + 1 // substitution into the template's one CNF
	tierShape                       // substitution into the binding's order-pattern shape
	tierSlow                        // substitution into the constraint, then CNF and consolidation
)

// rebind is Rebind reporting which tier served the binding (DESIGN.md §9).
func (t *AreaTemplate) rebind(ex *Extractor, lits []sqlparser.Literal) (*AccessArea, Timings, rebindTier, bool) {
	sp := rebindStage.Start()
	defer sp.End()
	var tm Timings
	if t.Uncacheable || t.ParseFailCat != "" || t.NonSelect || t.ExtractErr != nil || t.constraint == nil {
		templateRebindFails.Inc()
		return nil, tm, 0, false
	}
	for _, g := range t.guards {
		if g.Slot > len(lits) {
			templateRebindFails.Inc()
			return nil, tm, 0, false
		}
		if strings.ContainsAny(lits[g.Slot-1].Str, "%_") != g.Wildcard {
			templateRebindFails.Inc()
			return nil, tm, 0, false
		}
	}
	templateRebinds.Inc()
	t0 := time.Now()
	var (
		cnf       predicate.CNF
		truncated = t.truncated
		tier      = tierA
		pat       []byte
		learn     bool
	)
	if t.fast {
		cnf = t.cnf.Clone()
		for i := range cnf {
			for j := range cnf[i] {
				p := &cnf[i][j]
				if p.Kind == predicate.ColumnConstant {
					p.Val = substValue(p.Val, lits)
				}
			}
		}
		tm.Extract = time.Since(t0)
	} else {
		tier = tierSlow
		if t.order != nil {
			pat, learn = t.order.pattern(lits)
		}
		if learn {
			if sh := t.shapeFor(pat); sh != nil {
				learn = false
				if !sh.slow {
					tier = tierShape
					cnf, truncated = sh.bind(lits), sh.truncated
					tm.Extract = time.Since(t0)
				}
			}
		}
	}
	if tier == tierSlow {
		slowRebinds.Inc()
		expr := predicate.MapLeaves(t.constraint, func(p predicate.Pred) predicate.Pred {
			if p.Kind == predicate.ColumnConstant {
				p.Val = substValue(p.Val, lits)
			}
			return p
		})
		tm.Extract = time.Since(t0)
		t1 := time.Now()
		cnf, truncated = predicate.ToCNF(expr, ex.predCap())
		tm.CNF = time.Since(t1)
		t2 := time.Now()
		cnf = predicate.Consolidate(cnf)
		if learn {
			t.learnShape(pat, lits, cnf, truncated)
		}
		tm.Consolidate = time.Since(t2)
	} else if tier == tierShape {
		shapeHits.Inc()
	}
	area := &AccessArea{
		Relations:  t.relations,
		CNF:        cnf,
		Exact:      t.exactBase && !truncated,
		Truncated:  truncated,
		Referenced: t.referenced,
	}
	if ex.Stats != nil {
		observeStats(ex.Stats, area)
	}
	return area, tm, tier, true
}

// substValue replaces a slotted constant with the record's literal at the
// same slot, reapplying the unary minus signs the parser folded in.
func substValue(v predicate.Value, lits []sqlparser.Literal) predicate.Value {
	if v.Slot <= 0 || v.Slot > len(lits) {
		return v
	}
	lit := lits[v.Slot-1]
	switch v.Kind {
	case predicate.NumberVal:
		num := lit.Num
		if v.NegDepth%2 == 1 {
			num = -num
		}
		v.Num = num
		if v.Text != "" {
			v.Text = strings.Repeat("-", v.NegDepth) + lit.Text
		}
	case predicate.StringVal:
		v.Str = lit.Str
	}
	return v
}

// tierASafe reports whether the final consolidated CNF is structurally
// invariant under any reassignment of the template's literal slots, so a
// rebind may substitute into it directly instead of re-running CNF
// conversion and consolidation. The rules (DESIGN.md §9):
//
//  1. Every final clause holds exactly one predicate — multi-predicate
//     clauses can merge, become tautological, or reorder within the clause
//     depending on values.
//  2. The column of every slotted final predicate appears in exactly one
//     final predicate — otherwise consolidation's cross-clause interval
//     intersection could merge or contradict differently for other values.
//  3. Slot conservation: the multiset of slots in the final CNF equals the
//     multiset in the constraint's leaves — a dropped or merged slotted
//     predicate (within-clause union, dedup, absorption, truncation) means
//     the surviving bounds were chosen by value comparison.
//  4. Order stability: for every pair of final clauses, the first byte at
//     which their sort keys differ lies before both keys' value suffixes, so
//     the normalisation order cannot flip under substitution.
func tierASafe(constraint predicate.Expr, cnf predicate.CNF) bool {
	colUses := make(map[string]int)
	finalSlots := make(map[int]int)
	for _, cl := range cnf {
		if len(cl) != 1 {
			return false
		}
		p := cl[0]
		for _, c := range p.Columns() {
			colUses[c]++
		}
		if p.Kind == predicate.ColumnConstant && p.Val.Slot > 0 {
			finalSlots[p.Val.Slot]++
		}
	}
	for _, cl := range cnf {
		p := cl[0]
		if p.Kind == predicate.ColumnConstant && p.Val.Slot > 0 && colUses[p.Column] != 1 {
			return false
		}
	}
	leafSlots := make(map[int]int)
	collectLeafSlots(constraint, leafSlots)
	if len(leafSlots) != len(finalSlots) {
		return false
	}
	for s, n := range leafSlots {
		if finalSlots[s] != n {
			return false
		}
	}
	type clauseID struct {
		key  string
		vpos int // byte offset where value-dependent content starts
	}
	ids := make([]clauseID, len(cnf))
	for i, cl := range cnf {
		p := cl[0]
		key := p.Key()
		vpos := len(key) + 1 // no slotted value: the whole key is stable
		if p.Kind == predicate.ColumnConstant && p.Val.Slot > 0 {
			vpos = len(p.Column) + len(p.Op.String())
		}
		ids[i] = clauseID{key: key, vpos: vpos}
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			d := firstDiff(ids[i].key, ids[j].key)
			if d >= ids[i].vpos || d >= ids[j].vpos {
				return false
			}
		}
	}
	return true
}

// collectLeafSlots accumulates the slot multiset of the constraint's
// column-constant leaves.
func collectLeafSlots(e predicate.Expr, slots map[int]int) {
	switch x := e.(type) {
	case *predicate.Leaf:
		if x.P.Kind == predicate.ColumnConstant && x.P.Val.Slot > 0 {
			slots[x.P.Val.Slot]++
		}
	case *predicate.Not:
		collectLeafSlots(x.Kid, slots)
	case *predicate.And:
		for _, k := range x.Kids {
			collectLeafSlots(k, slots)
		}
	case *predicate.Or:
		for _, k := range x.Kids {
			collectLeafSlots(k, slots)
		}
	}
}

// firstDiff returns the index of the first byte at which a and b differ;
// when one is a prefix of the other it is the shorter length.
func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TemplateCache is a concurrency-safe fingerprint → AreaTemplate map with
// hit/miss telemetry, plus the exact-statement memo (memo.go) in front of
// it. The zero value is ready to use.
type TemplateCache struct {
	m      sync.Map // uint64 -> *AreaTemplate
	size   atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64

	// Limit, when positive, stops the cache from storing more than this many
	// templates; lookups continue to work, and a class refused a template
	// takes the full path. The SkyServer log's template count is small
	// (hundreds of shapes per workload); a server bounds it against
	// adversarial inputs such as alias-variant floods.
	Limit int

	// The exact-statement memo: stmts maps exact text to its entry (nil
	// before the first insert and once probation switched the memo off). A
	// hit is a lock-free load; memoMu serialises inserts, resets and the
	// probation verdict, and guards memoN and judgeMisses.
	memoMu      sync.Mutex
	stmts       atomic.Pointer[sync.Map] // string -> *Stmt
	memoN       int
	judgeMisses int64
	suspended   atomic.Bool
	memoOff     atomic.Bool
	_           [64]byte // keep judgeHits' writes off the line hits read
	judgeHits   atomic.Int64
}

// Get returns the cached template for fp.
func (c *TemplateCache) Get(fp uint64) (*AreaTemplate, bool) {
	v, ok := c.m.Load(fp)
	if !ok {
		c.misses.Add(1)
		templateMisses.Inc()
		return nil, false
	}
	c.hits.Add(1)
	templateHits.Inc()
	return v.(*AreaTemplate), true
}

// put stores the template for fp unless the cache is nil or holds Limit
// templates already (a refusal, counted); the first stored template wins when
// two workers race.
func (c *TemplateCache) put(fp uint64, t *AreaTemplate) {
	if c == nil {
		return
	}
	if n := c.size.Add(1); c.Limit > 0 && n > int64(c.Limit) {
		c.size.Add(-1)
		templateRefusals.Inc()
		return
	}
	if _, loaded := c.m.LoadOrStore(fp, t); loaded {
		c.size.Add(-1)
		return
	}
	templateStores.Inc()
}

// Len returns the number of cached templates.
func (c *TemplateCache) Len() int { return int(c.size.Load()) }

// Hits returns the number of successful lookups.
func (c *TemplateCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of failed lookups.
func (c *TemplateCache) Misses() int64 { return c.misses.Load() }
