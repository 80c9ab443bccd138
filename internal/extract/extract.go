package extract

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/predicate"
	"repro/internal/schema"
	"repro/internal/sqlparser"
)

// Extractor maps parsed SELECT statements to access areas. A nil Schema is
// allowed; column resolution then degrades to best-effort qualification.
type Extractor struct {
	// Schema provides canonical relation/column names and column domains
	// for the aggregate-query lemmas.
	Schema *schema.Schema
	// PredCap bounds the number of atomic predicates fed to CNF conversion
	// (Section 6.6 workaround). Zero means predicate.DefaultPredCap;
	// negative disables the cap.
	PredCap int
	// Stats, when non-nil, is updated with every constant the query refers
	// to, growing the access(a) ranges of Section 5.3.
	Stats *schema.Stats
}

// New returns an extractor over the given schema with the default predicate
// cap.
func New(s *schema.Schema) *Extractor {
	return &Extractor{Schema: s}
}

func (ex *Extractor) predCap() int {
	switch {
	case ex.PredCap < 0:
		return 0 // disabled
	case ex.PredCap == 0:
		return predicate.DefaultPredCap
	default:
		return ex.PredCap
	}
}

// ExtractSQL parses src and extracts its access area.
func (ex *Extractor) ExtractSQL(src string) (*AccessArea, error) {
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return ex.Extract(sel)
}

// Extract computes the access area of a parsed SELECT statement by
// transforming it to the intermediate format of Section 2.4.
func (ex *Extractor) Extract(sel *sqlparser.SelectStatement) (*AccessArea, error) {
	area, _, err := ex.ExtractWithTimings(sel)
	return area, err
}

// Timings reports the duration of the individual extraction stages, matching
// the per-stage measurements of Section 6.6 (Extraction, CNF conversion,
// Consolidation; parsing is timed by the caller).
type Timings struct {
	Extract     time.Duration
	CNF         time.Duration
	Consolidate time.Duration
}

// ExtractWithTimings is Extract with per-stage timings for the efficiency
// experiment.
func (ex *Extractor) ExtractWithTimings(sel *sqlparser.SelectStatement) (*AccessArea, Timings, error) {
	area, tm, _, _, err := ex.extractFull(sel)
	return area, tm, err
}

// extractFull runs the three extraction stages and additionally returns the
// pre-CNF constraint and the extraction state, which extractTemplate turns
// into a reusable area template.
func (ex *Extractor) extractFull(sel *sqlparser.SelectStatement) (*AccessArea, Timings, predicate.Expr, *state, error) {
	var tm Timings
	st := &state{ex: ex, exact: true, cacheable: true}
	t0 := time.Now()
	expr, err := st.processQueryBody(sel, nil)
	tm.Extract = time.Since(t0)
	if err != nil {
		return nil, tm, nil, st, err
	}
	t1 := time.Now()
	cnf, truncated := predicate.ToCNF(expr, ex.predCap())
	tm.CNF = time.Since(t1)
	t2 := time.Now()
	cnf = predicate.Consolidate(cnf)
	tm.Consolidate = time.Since(t2)
	area := &AccessArea{
		Relations:  normalizeRelations(st.rels),
		CNF:        cnf,
		Exact:      st.exact && !truncated,
		Truncated:  truncated,
		Referenced: st.referenced(),
	}
	if ex.Stats != nil {
		observeStats(ex.Stats, area)
	}
	return area, tm, expr, st, nil
}

// referenced returns the sorted A set.
func (st *state) referenced() []string {
	out := make([]string, 0, len(st.touched))
	for col := range st.touched {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// observeStats records every constant of the final constraint so access(a)
// grows per Section 5.3.
func observeStats(stats *schema.Stats, area *AccessArea) {
	for _, cl := range area.CNF {
		for _, p := range cl {
			if p.Kind != predicate.ColumnConstant {
				continue
			}
			if p.Val.Kind == predicate.NumberVal {
				stats.ObserveNumeric(p.Column, p.Val.Num)
			} else {
				stats.ObserveCategorical(p.Column, p.Val.Str)
			}
		}
	}
}

// state carries extraction-wide accumulators.
type state struct {
	ex      *Extractor
	rels    []string // canonical relation names of the universal relation
	exact   bool
	touched map[string]struct{} // A = A_W ∪ A_G ∪ A_H ∪ A_S (Section 2.1)

	// cacheable is cleared whenever a literal's VALUE (not just its
	// presence) influences the constraint's structure — constant folding,
	// constant-vs-constant comparisons, HAVING aggregate lemmas. Such a
	// statement's area cannot be rebound with other constants, so its
	// fingerprint class must always take the slow path (DESIGN.md §7).
	cacheable   bool
	cacheReason string
	// likeGuards records, per LIKE pattern literal, whether the pattern
	// contained a wildcard. Wildcard-ness picks between an equality
	// predicate and the TRUE approximation, so a rebind is valid only for
	// records whose pattern at the same slot has the same wildcard-ness.
	likeGuards []likeGuard
}

func (st *state) approx() { st.exact = false }

// noCache marks the extraction non-cacheable; the first reason sticks.
func (st *state) noCache(reason string) {
	if st.cacheable {
		st.cacheable = false
		st.cacheReason = reason
	}
}

// touch records a referenced column in the A set.
func (st *state) touch(col string) {
	if st.touched == nil {
		st.touched = make(map[string]struct{})
	}
	st.touched[col] = struct{}{}
}

// scope is one query level's name environment: aliases of its FROM clause
// plus a parent pointer for correlated references.
type scope struct {
	parent  *scope
	aliases map[string]string        // lower(alias) -> canonical relation
	derived map[string]*derivedTable // lower(alias) -> derived table
	rels    []string                 // canonical relations of this level, in FROM order
}

type derivedTable struct {
	// colMap maps lower(output column name) to the canonical underlying
	// column; absent entries are opaque (computed) columns.
	colMap map[string]string
}

func newScope(parent *scope) *scope {
	return &scope{
		parent:  parent,
		aliases: make(map[string]string),
		derived: make(map[string]*derivedTable),
	}
}

// canonicalRelation strips schema/database prefixes ("dbo.X" -> "X") and
// resolves capitalisation against the schema.
func (st *state) canonicalRelation(name string) string {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	if st.ex.Schema != nil {
		return st.ex.Schema.CanonicalTable(name)
	}
	return name
}

// containsRelation reports whether rel is registered in sc or any ancestor.
func containsRelation(sc *scope, rel string) bool {
	for s := sc; s != nil; s = s.parent {
		for _, r := range s.rels {
			if r == rel {
				return true
			}
		}
	}
	return false
}

// registerRelation adds a base relation to the scope, enforcing the
// self-join exclusion of Section 2.1.
func (st *state) registerRelation(sc *scope, name, alias string) error {
	canon := st.canonicalRelation(name)
	if containsRelation(sc, canon) {
		return &Error{Kind: ErrSelfJoin, Msg: fmt.Sprintf("relation %s occurs twice (self-join)", canon)}
	}
	sc.rels = append(sc.rels, canon)
	st.rels = append(st.rels, canon)
	sc.aliases[strings.ToLower(canon)] = canon
	lastPart := name
	if i := strings.LastIndex(name, "."); i >= 0 {
		lastPart = name[i+1:]
	}
	sc.aliases[strings.ToLower(lastPart)] = canon
	sc.aliases[strings.ToLower(name)] = canon
	if alias != "" {
		sc.aliases[strings.ToLower(alias)] = canon
	}
	return nil
}

// processQueryBody transforms one SELECT body (FROM, WHERE, GROUP BY/HAVING
// and any UNION arms) into a constraint expression, registering its
// relations globally.
func (st *state) processQueryBody(sel *sqlparser.SelectStatement, parent *scope) (predicate.Expr, error) {
	res, err := st.processQueryBodyCollect(sel, parent)
	if err != nil {
		return nil, err
	}
	return res.constraint, nil
}

// processTableExpr registers the relations of a FROM factor and returns the
// constraint it contributes (join conditions per Section 4.2).
func (st *state) processTableExpr(te sqlparser.TableExpr, sc *scope) (predicate.Expr, error) {
	switch t := te.(type) {
	case *sqlparser.TableName:
		if err := st.registerRelation(sc, t.Name, t.Alias); err != nil {
			return nil, err
		}
		return predicate.NewLeaf(predicate.True()), nil

	case *sqlparser.SubqueryTable:
		// Derived table: its relations join the universal relation and its
		// constraint is conjoined (it restricts which tuples influence the
		// outer result).
		inner, err := st.processQueryBodyCollect(t.Select, sc)
		if err != nil {
			return nil, err
		}
		if t.Alias != "" {
			sc.derived[strings.ToLower(t.Alias)] = derivedFromSelect(t.Select, inner.scope, st)
		}
		return inner.constraint, nil

	case *sqlparser.Join:
		// Track which relations each side of THIS join contributes, so a
		// NATURAL join only equates its own operands' columns (not those of
		// earlier comma-separated FROM factors sharing the scope).
		base := len(sc.rels)
		lc, err := st.processTableExpr(t.Left, sc)
		if err != nil {
			return nil, err
		}
		leftEnd := len(sc.rels)
		rc, err := st.processTableExpr(t.Right, sc)
		if err != nil {
			return nil, err
		}
		leftRels := append([]string(nil), sc.rels[base:leftEnd]...)
		rightRels := append([]string(nil), sc.rels[leftEnd:]...)
		parts := []predicate.Expr{lc, rc}
		switch t.Type {
		case sqlparser.FullOuterJoin:
			// FULL OUTER JOIN keeps all tuples of both sides: no constraint
			// on U (Example 2).
		case sqlparser.CrossJoin:
			// No condition.
		default:
			if t.Natural {
				nat, err := st.naturalJoinConstraint(leftRels, rightRels)
				if err != nil {
					return nil, err
				}
				parts = append(parts, nat)
			}
			if t.On != nil {
				on, err := st.convert(t.On, sc)
				if err != nil {
					return nil, err
				}
				if t.Type == sqlparser.LeftOuterJoin || t.Type == sqlparser.RightOuterJoin {
					// Example 3: LEFT/RIGHT OUTER JOIN ON T.u = S.u is
					// equivalent (w.r.t. access area) to the nested IN
					// query, which flattens back to the join condition. For
					// non-equality ON conditions the equivalence is an
					// approximation.
					if !isEqualityConjunction(t.On) {
						st.approx()
					}
				}
				parts = append(parts, on)
			}
		}
		return predicate.NewAnd(parts...), nil

	default:
		return nil, &Error{Kind: ErrUnsupported, Msg: fmt.Sprintf("unsupported table expression %T", te)}
	}
}

// queryBodyResult bundles the constraint and scope of a processed subquery.
type queryBodyResult struct {
	constraint predicate.Expr
	scope      *scope
}

// processQueryBodyCollect is processQueryBody but also returns the inner
// scope (needed to build derived-table column maps).
func (st *state) processQueryBodyCollect(sel *sqlparser.SelectStatement, parent *scope) (*queryBodyResult, error) {
	sc := newScope(parent)
	var parts []predicate.Expr
	for _, te := range sel.From {
		c, err := st.processTableExpr(te, sc)
		if err != nil {
			return nil, err
		}
		parts = append(parts, c)
	}
	if sel.Where != nil {
		w, err := st.convert(sel.Where, sc)
		if err != nil {
			return nil, err
		}
		parts = append(parts, w)
	}
	for _, g := range sel.GroupBy {
		if cr, ok := g.(*sqlparser.ColumnRef); ok {
			st.resolveColumn(cr, sc) // A_G membership only
		}
	}
	if sel.Having != nil {
		h, err := st.convertHaving(sel, sc, predicate.NewAnd(parts...))
		if err != nil {
			return nil, err
		}
		parts = append(parts, h)
	}
	constraint := predicate.NewAnd(parts...)
	// UNION arms: the access area of a union is the union of the arms'
	// areas — a tuple of the (merged) universal relation influences the
	// result iff it influences some arm. Each arm gets its own scope; the
	// same relation may legitimately appear in several arms.
	if len(sel.Unions) > 0 {
		exprs := []predicate.Expr{constraint}
		for _, arm := range sel.Unions {
			armRes, err := st.processQueryBodyCollect(arm.Select, parent)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, armRes.constraint)
		}
		constraint = predicate.NewOr(exprs...)
	}
	return &queryBodyResult{constraint: constraint, scope: sc}, nil
}

// derivedFromSelect builds the output-column map of a derived table.
func derivedFromSelect(sel *sqlparser.SelectStatement, sc *scope, st *state) *derivedTable {
	dt := &derivedTable{colMap: make(map[string]string)}
	for _, item := range sel.Select {
		if item.Star {
			// SELECT *: expose every known column of the subquery's
			// relations under its own name.
			for _, rel := range sc.rels {
				if st.ex.Schema == nil {
					continue
				}
				r := st.ex.Schema.Relation(rel)
				if r == nil {
					continue
				}
				for _, c := range r.Columns {
					dt.colMap[strings.ToLower(c.Name)] = rel + "." + c.Name
				}
			}
			continue
		}
		cr, ok := item.Expr.(*sqlparser.ColumnRef)
		if !ok {
			continue // computed column: opaque
		}
		canonical, ok := st.resolveColumn(cr, sc)
		if !ok {
			continue
		}
		name := item.Alias
		if name == "" {
			name = cr.Name
		}
		dt.colMap[strings.ToLower(name)] = canonical
	}
	return dt
}

// naturalJoinConstraint equates the common columns of the left and right
// relation groups (Section 4.2, NATURAL JOIN).
func (st *state) naturalJoinConstraint(leftRels, rightRels []string) (predicate.Expr, error) {
	if st.ex.Schema == nil {
		st.approx()
		return predicate.NewLeaf(predicate.True()), nil
	}
	var parts []predicate.Expr
	matched := false
	for _, lr := range leftRels {
		lrel := st.ex.Schema.Relation(lr)
		if lrel == nil {
			continue
		}
		for _, rr := range rightRels {
			rrel := st.ex.Schema.Relation(rr)
			if rrel == nil {
				continue
			}
			for _, lc := range lrel.Columns {
				if rc := rrel.Column(lc.Name); rc != nil {
					matched = true
					parts = append(parts, predicate.NewLeaf(predicate.Cols(
						lrel.QualifiedColumn(lc.Name), predicate.Eq, rrel.QualifiedColumn(rc.Name))))
				}
			}
		}
	}
	if !matched {
		// No common columns known: degenerates to a cross join; if either
		// side is unknown to the schema this is an approximation.
		for _, r := range append(append([]string(nil), leftRels...), rightRels...) {
			if st.ex.Schema.Relation(r) == nil {
				st.approx()
				break
			}
		}
	}
	return predicate.NewAnd(parts...), nil
}

// isEqualityConjunction reports whether an ON condition is a conjunction of
// column = column predicates.
func isEqualityConjunction(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND":
			return isEqualityConjunction(x.L) && isEqualityConjunction(x.R)
		case "=":
			_, lok := x.L.(*sqlparser.ColumnRef)
			_, rok := x.R.(*sqlparser.ColumnRef)
			return lok && rok
		}
	}
	return false
}

// resolveColumn resolves a column reference to its canonical qualified name
// through the scope chain (aliases, derived tables, schema lookup),
// recording it in the A set. ok is false when the reference is opaque
// (derived computed column).
func (st *state) resolveColumn(cr *sqlparser.ColumnRef, sc *scope) (string, bool) {
	col, ok := st.resolveColumnQuiet(cr, sc)
	if ok {
		st.touch(col)
	}
	return col, ok
}

func (st *state) resolveColumnQuiet(cr *sqlparser.ColumnRef, sc *scope) (string, bool) {
	if cr.Table != "" {
		key := strings.ToLower(cr.Table)
		for s := sc; s != nil; s = s.parent {
			if canon, ok := s.aliases[key]; ok {
				if st.ex.Schema != nil {
					if r := st.ex.Schema.Relation(canon); r != nil {
						return r.QualifiedColumn(cr.Name), true
					}
				}
				return canon + "." + cr.Name, true
			}
			if dt, ok := s.derived[key]; ok {
				if underlying, ok := dt.colMap[strings.ToLower(cr.Name)]; ok {
					return underlying, true
				}
				return "", false // opaque computed column
			}
		}
		// Unknown qualifier: keep as written (stripped of extra prefixes).
		return st.canonicalRelation(cr.Table) + "." + cr.Name, true
	}
	// Unqualified: search scope chain.
	for s := sc; s != nil; s = s.parent {
		if st.ex.Schema != nil {
			for _, rel := range s.rels {
				if r := st.ex.Schema.Relation(rel); r != nil && r.Column(cr.Name) != nil {
					return r.QualifiedColumn(cr.Name), true
				}
			}
		}
		for _, dt := range s.derived {
			if underlying, ok := dt.colMap[strings.ToLower(cr.Name)]; ok {
				return underlying, true
			}
		}
	}
	// Fall back to the first relation of the innermost scope that has any.
	for s := sc; s != nil; s = s.parent {
		if len(s.rels) > 0 {
			return s.rels[0] + "." + cr.Name, true
		}
	}
	return cr.Name, true
}
