package extract

import (
	"sync"
	"sync/atomic"

	"repro/internal/sqlparser"
)

// The exact-statement memo (DESIGN.md §9). SkyServer traffic is dominated by
// bots re-issuing identical statements, and an extraction is a pure function
// of the statement text (given the schema and predicate cap every extractor
// sharing one TemplateCache already has in common). So the cache also keeps,
// per exact text, the lexer pass and the whole extraction outcome: a repeated
// text is lexed and extracted once per process, on every path that shares
// the cache — live ingest admission, the extraction pump, WAL replay and
// snapshot restore.
//
// Probation: a workload of all-distinct texts would pay a map insert per
// record without ever hitting, so once memoProbation lookups have missed
// while fewer than 1/16 of lookups hit, the memo drops its entries and turns
// itself off for good (lookups then lex into a private, unshared entry).
// Bot traffic shows hits within the first few hundred statements, so the
// window does not mis-judge it. The memo also never holds more than
// memoLimit entries: reaching the bound drops them all and starts afresh.
const (
	memoProbation = 1024
	memoLimit     = 32 << 10
)

// Stmt is the memo entry of one exact statement text: its lexer pass and,
// once a pipeline has extracted it, the extraction outcome.
type Stmt struct {
	fp    uint64
	lits  []sqlparser.Literal
	lexed bool
	out   atomic.Pointer[Outcome]
}

// lexStmt builds the entry for sql, paying the lexer once.
func lexStmt(sql string) *Stmt {
	fp, lits, err := sqlparser.Fingerprint(sql)
	if err != nil {
		return &Stmt{}
	}
	return &Stmt{fp: fp, lits: lits, lexed: true}
}

// Fingerprint returns the statement's lexer pass: the template fingerprint
// and the literal list in lexer order. ok is false (fp 0) when the lexer
// rejected the text.
func (s *Stmt) Fingerprint() (fp uint64, lits []sqlparser.Literal, ok bool) {
	return s.fp, s.lits, s.lexed
}

// Outcome returns the memoised extraction outcome (nil until the text's
// first extraction stored one).
func (s *Stmt) Outcome() *Outcome { return s.out.Load() }

// SetOutcome memoises the text's extraction outcome. Two workers extracting
// the same text concurrently compute equal outcomes; the first store wins.
func (s *Stmt) SetOutcome(o *Outcome) { s.out.CompareAndSwap(nil, o) }

// Outcome is the extraction outcome of one exact statement text. Exactly one
// of its groups applies:
//   - ParseFailCat != "": the statement was rejected with this category
//     ("syntax", "lex", ..., or "non-select" for a recognised non-SELECT);
//   - ExtractErr != nil: it parsed, but extraction failed;
//   - otherwise Area is the access area and Key its Area.Key().
//
// The area is shared by every record of the text: callers must not mutate
// it (the template cache's rebinds already share Relations and Referenced).
type Outcome struct {
	ParseFailCat string
	ExtractErr   error
	Area         *AccessArea
	Key          string
}

// Observe records area's constants in the extractor's stats registry, the
// way extracting the area did. A memo hit calls it through the caller's own
// extractor: observing only ever grows access(a), so the registry — its
// generation and ChangedSince log included — ends exactly as a cold
// extraction leaves it, even when two registries share one memo.
func (ex *Extractor) Observe(area *AccessArea) {
	if ex.Stats != nil && area != nil {
		observeStats(ex.Stats, area)
	}
}

// Stmt returns the memo entry for the exact text sql, lexing it on first
// sight. While the memo is on, every caller that looks up one text gets the
// same entry; once probation has turned the memo off, each call returns a
// fresh private entry. Each call is one memo lookup: callers carry the entry
// (qlog.Record.Stmt) instead of looking the text up twice. A hit takes no
// lock, so pipeline workers sharing the cache do not serialise on it.
func (c *TemplateCache) Stmt(sql string) *Stmt {
	if c.memoOff.Load() {
		return lexStmt(sql)
	}
	if m := c.stmts.Load(); m != nil {
		if s, ok := m.Load(sql); ok {
			if !c.suspended.Load() {
				c.judgeHits.Add(1)
			}
			memoHitsTotal.Inc()
			return s.(*Stmt)
		}
	}
	memoMissesTotal.Inc()
	c.memoMu.Lock()
	if !c.suspended.Load() {
		c.judgeMisses++
		if c.judgeMisses >= memoProbation && c.judgeHits.Load()*16 < c.judgeMisses {
			c.stmts.Store(nil)
			c.memoN = 0
			c.memoOff.Store(true)
			c.memoMu.Unlock()
			return lexStmt(sql)
		}
	}
	c.memoMu.Unlock()
	// Lex outside the lock: it is the expensive part, and two callers racing
	// on one new text both lex it, then agree on the first stored entry.
	s := lexStmt(sql)
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if c.memoOff.Load() {
		return s
	}
	m := c.stmts.Load()
	if m != nil {
		if prev, ok := m.Load(sql); ok {
			return prev.(*Stmt)
		}
	}
	if m == nil || c.memoN >= memoLimit {
		m = new(sync.Map)
		c.stmts.Store(m)
		c.memoN = 0
	}
	m.Store(sql, s)
	c.memoN++
	return s
}

// SuspendProbation stops lookups from counting toward the probation window
// until resume is called. A snapshot restore runs under it: it re-extracts
// one representative per area — distinct texts by construction, which would
// switch the memo off before the class restores could hit it — and says
// nothing about whether the traffic that follows repeats.
func (c *TemplateCache) SuspendProbation() (resume func()) {
	c.suspended.Store(true)
	return func() { c.suspended.Store(false) }
}

// MemoLen returns the number of resident memo entries.
func (c *TemplateCache) MemoLen() int {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	return c.memoN
}

// MemoOff reports whether probation has switched the memo off.
func (c *TemplateCache) MemoOff() bool { return c.memoOff.Load() }
