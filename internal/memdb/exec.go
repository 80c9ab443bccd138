package memdb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/sqlparser"
)

// RowLimitError simulates SkyServer's "limit is top 500000" execution error
// (Section 2.3 cites it as a reason access areas must not depend on
// execution success).
type RowLimitError struct {
	Limit int
}

func (e *RowLimitError) Error() string {
	return fmt.Sprintf("limit is top %d", e.Limit)
}

// DialectError simulates SkyServer rejecting non-T-SQL constructs (the
// MySQL LIMIT clause of Section 6.6).
type DialectError struct {
	Construct string
}

func (e *DialectError) Error() string {
	return fmt.Sprintf("incorrect syntax near '%s'", e.Construct)
}

// ExecOptions controls execution.
type ExecOptions struct {
	// RowLimit caps the result cardinality; exceeding it returns
	// *RowLimitError. 0 disables the cap.
	RowLimit int
	// StrictTSQL makes the engine reject MySQL-dialect constructs (LIMIT)
	// the way SkyServer's SQL Server would.
	StrictTSQL bool
}

// ResultSet is the outcome of a query.
type ResultSet struct {
	Columns []string
	Rows    [][]Value
}

// ExecuteSQL parses and executes a statement.
func (db *DB) ExecuteSQL(src string, opts ExecOptions) (*ResultSet, error) {
	sel, err := sqlparser.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return db.Execute(sel, opts)
}

// Execute runs a parsed SELECT.
func (db *DB) Execute(sel *sqlparser.SelectStatement, opts ExecOptions) (*ResultSet, error) {
	if opts.StrictTSQL && sel.Limit != nil {
		return nil, &DialectError{Construct: "LIMIT"}
	}
	rs, err := db.execute(sel, nil)
	if err != nil {
		return nil, err
	}
	if opts.RowLimit > 0 && len(rs.Rows) > opts.RowLimit {
		return nil, &RowLimitError{Limit: opts.RowLimit}
	}
	return rs, nil
}

// binding associates the aliases of one FROM factor row with its values.
type binding struct {
	names []string // lowercased alias plus table name variants
	table *Table
	row   []Value // nil for the padded side of an outer join
}

// matches reports whether qualifier names the binding, ignoring case. An
// ASCII qualifier is compared against the lowercased names in place, so
// the per-row column lookup does not allocate; any other qualifier is
// lowercased first, as names were.
func (b *binding) matches(qualifier string) bool {
	for i := 0; i < len(qualifier); i++ {
		if qualifier[i] >= utf8.RuneSelf {
			return slices.Contains(b.names, strings.ToLower(qualifier))
		}
	}
	for _, n := range b.names {
		if equalLowerASCII(n, qualifier) {
			return true
		}
	}
	return false
}

// equalLowerASCII reports whether lower equals the ASCII string s with its
// upper-case letters lowered.
func equalLowerASCII(lower, s string) bool {
	if len(lower) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if lower[i] != c {
			return false
		}
	}
	return true
}

// env is one candidate tuple of the universal relation during evaluation.
type env struct {
	bindings []*binding
	parent   *env
}

func (e *env) lookup(table, column string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		for _, b := range cur.bindings {
			if table != "" && !b.matches(table) {
				continue
			}
			if ci, ok := b.table.ColumnIndex(column); ok {
				if b.row == nil {
					return NullValue(), true
				}
				return b.row[ci], true
			}
		}
		if table != "" {
			continue
		}
	}
	return Value{}, false
}

func (db *DB) execute(sel *sqlparser.SelectStatement, parent *env) (*ResultSet, error) {
	// 1. FROM: build candidate envs.
	envs := []*env{{parent: parent}}
	for _, te := range sel.From {
		sets, err := db.evalTableExpr(te, parent)
		if err != nil {
			return nil, err
		}
		var next []*env
		for _, e := range envs {
			for _, bs := range sets {
				merged := &env{parent: parent}
				merged.bindings = append(merged.bindings, e.bindings...)
				merged.bindings = append(merged.bindings, bs...)
				next = append(next, merged)
			}
		}
		envs = next
	}
	// 2. WHERE.
	if sel.Where != nil {
		var filtered []*env
		for _, e := range envs {
			ok, err := db.evalBool(sel.Where, e, nil)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, e)
			}
		}
		envs = filtered
	}
	// 3. Aggregate or plain projection.
	var rs *ResultSet
	var err error
	if isAggregateQuery(sel) {
		rs, err = db.executeAggregate(sel, envs)
	} else {
		rs, err = db.executePlain(sel, envs)
	}
	if err != nil {
		return nil, err
	}
	// 4. DISTINCT.
	if sel.Distinct {
		rs.Rows = dedupeRows(rs.Rows)
	}
	// 5. TOP / LIMIT.
	cap := -1
	if sel.Top != nil {
		if sel.TopPercent {
			cap = (len(rs.Rows)*int(*sel.Top) + 99) / 100
		} else {
			cap = int(*sel.Top)
		}
	}
	if sel.Limit != nil {
		cap = int(*sel.Limit)
	}
	if cap >= 0 && len(rs.Rows) > cap {
		rs.Rows = rs.Rows[:cap]
	}
	// 6. UNION arms: concatenate; plain UNION deduplicates.
	for _, arm := range sel.Unions {
		armRS, err := db.execute(arm.Select, parent)
		if err != nil {
			return nil, err
		}
		rs.Rows = append(rs.Rows, armRS.Rows...)
		if !arm.All {
			rs.Rows = dedupeRows(rs.Rows)
		}
	}
	return rs, nil
}

// evalTableExpr materialises one FROM factor as a list of binding sets.
func (db *DB) evalTableExpr(te sqlparser.TableExpr, parent *env) ([][]*binding, error) {
	switch t := te.(type) {
	case *sqlparser.TableName:
		tbl := db.Table(t.Name)
		if tbl == nil {
			return nil, fmt.Errorf("memdb: unknown table %q", t.Name)
		}
		names := bindingNames(t.Name, t.Alias, tbl.Name)
		out := make([][]*binding, 0, len(tbl.Rows))
		for _, row := range tbl.Rows {
			out = append(out, []*binding{{names: names, table: tbl, row: row}})
		}
		return out, nil

	case *sqlparser.SubqueryTable:
		rs, err := db.execute(t.Select, parent)
		if err != nil {
			return nil, err
		}
		derived := &Table{Name: t.Alias, Columns: rs.Columns, colIdx: make(map[string]int)}
		for i, c := range rs.Columns {
			// Derived columns are addressable by their bare name.
			bare := c
			if j := strings.LastIndex(c, "."); j >= 0 {
				bare = c[j+1:]
			}
			derived.colIdx[strings.ToLower(bare)] = i
		}
		names := bindingNames(t.Alias, "", t.Alias)
		out := make([][]*binding, 0, len(rs.Rows))
		for _, row := range rs.Rows {
			out = append(out, []*binding{{names: names, table: derived, row: row}})
		}
		return out, nil

	case *sqlparser.Join:
		left, err := db.evalTableExpr(t.Left, parent)
		if err != nil {
			return nil, err
		}
		right, err := db.evalTableExpr(t.Right, parent)
		if err != nil {
			return nil, err
		}
		return db.joinBindingSets(t, left, right, parent)

	default:
		return nil, fmt.Errorf("memdb: unsupported table expression %T", te)
	}
}

func bindingNames(written, alias, canonical string) []string {
	set := map[string]struct{}{}
	add := func(s string) {
		if s != "" {
			set[strings.ToLower(s)] = struct{}{}
		}
	}
	add(written)
	add(alias)
	add(canonical)
	if i := strings.LastIndex(written, "."); i >= 0 {
		add(written[i+1:])
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// equiJoinColumns detects a simple "a = b" ON condition and resolves which
// side each column belongs to, enabling the hash-join fast path.
func equiJoinColumns(j *sqlparser.Join, left, right [][]*binding) (lc, rc *sqlparser.ColumnRef, ok bool) {
	if j.Natural || j.On == nil || len(left) == 0 || len(right) == 0 {
		return nil, nil, false
	}
	cmp, isCmp := j.On.(*sqlparser.BinaryExpr)
	if !isCmp || cmp.Op != "=" {
		return nil, nil, false
	}
	a, aok := cmp.L.(*sqlparser.ColumnRef)
	b, bok := cmp.R.(*sqlparser.ColumnRef)
	if !aok || !bok {
		return nil, nil, false
	}
	belongs := func(c *sqlparser.ColumnRef, side []*binding) bool {
		for _, bd := range side {
			if c.Table != "" && !bd.matches(c.Table) {
				continue
			}
			if _, found := bd.table.ColumnIndex(c.Name); found {
				return true
			}
		}
		return false
	}
	switch {
	case belongs(a, left[0]) && belongs(b, right[0]):
		return a, b, true
	case belongs(b, left[0]) && belongs(a, right[0]):
		return b, a, true
	}
	return nil, nil, false
}

// lookupIn evaluates a column reference against one binding set.
func lookupIn(c *sqlparser.ColumnRef, bs []*binding) (Value, bool) {
	e := &env{bindings: bs}
	return e.lookup(c.Table, c.Name)
}

func (db *DB) joinBindingSets(j *sqlparser.Join, left, right [][]*binding, parent *env) ([][]*binding, error) {
	// Hash-join fast path for plain equi-joins: O(|L| + |R|) instead of the
	// nested loop, which dominates the re-query baseline's cost on the
	// value-added catalogue joins.
	if lc, rc, ok := equiJoinColumns(j, left, right); ok {
		index := make(map[string][]int, len(right))
		for ri, r := range right {
			v, found := lookupIn(rc, r)
			if !found || v.Kind == Null {
				continue
			}
			index[v.String()] = append(index[v.String()], ri)
		}
		var out [][]*binding
		leftMatched := make([]bool, len(left))
		rightMatched := make([]bool, len(right))
		for li, l := range left {
			v, found := lookupIn(lc, l)
			if found && v.Kind != Null {
				for _, ri := range index[v.String()] {
					leftMatched[li] = true
					rightMatched[ri] = true
					merged := make([]*binding, 0, len(l)+len(right[ri]))
					merged = append(merged, l...)
					merged = append(merged, right[ri]...)
					out = append(out, merged)
				}
			}
		}
		return db.padOuter(j, left, right, leftMatched, rightMatched, out), nil
	}
	return db.nestedLoopJoin(j, left, right, parent)
}

// padOuter appends the null-padded rows outer joins require.
func (db *DB) padOuter(j *sqlparser.Join, left, right [][]*binding, leftMatched, rightMatched []bool, out [][]*binding) [][]*binding {
	if j.Type == sqlparser.LeftOuterJoin || j.Type == sqlparser.FullOuterJoin {
		nullRight := nullBindings(right)
		for li, l := range left {
			if !leftMatched[li] {
				merged := make([]*binding, 0, len(l)+len(nullRight))
				merged = append(merged, l...)
				merged = append(merged, nullRight...)
				out = append(out, merged)
			}
		}
	}
	if j.Type == sqlparser.RightOuterJoin || j.Type == sqlparser.FullOuterJoin {
		nullLeft := nullBindings(left)
		for ri, r := range right {
			if !rightMatched[ri] {
				merged := make([]*binding, 0, len(nullLeft)+len(r))
				merged = append(merged, nullLeft...)
				merged = append(merged, r...)
				out = append(out, merged)
			}
		}
	}
	return out
}

func (db *DB) nestedLoopJoin(j *sqlparser.Join, left, right [][]*binding, parent *env) ([][]*binding, error) {
	matchesOn := func(l, r []*binding) (bool, error) {
		combined := &env{parent: parent}
		combined.bindings = append(combined.bindings, l...)
		combined.bindings = append(combined.bindings, r...)
		if j.Natural {
			ok := naturalMatch(l, r)
			if !ok {
				return false, nil
			}
		}
		if j.On == nil {
			return true, nil
		}
		return db.evalBool(j.On, combined, nil)
	}
	var out [][]*binding
	leftMatched := make([]bool, len(left))
	rightMatched := make([]bool, len(right))
	isCross := j.Type == sqlparser.CrossJoin && !j.Natural && j.On == nil
	for li, l := range left {
		for ri, r := range right {
			ok := true
			if !isCross {
				var err error
				ok, err = matchesOn(l, r)
				if err != nil {
					return nil, err
				}
			}
			if ok {
				leftMatched[li] = true
				rightMatched[ri] = true
				merged := make([]*binding, 0, len(l)+len(r))
				merged = append(merged, l...)
				merged = append(merged, r...)
				out = append(out, merged)
			}
		}
	}
	return db.padOuter(j, left, right, leftMatched, rightMatched, out), nil
}

// nullBindings derives the null-padded binding shape of one side.
func nullBindings(sets [][]*binding) []*binding {
	if len(sets) == 0 {
		return nil
	}
	src := sets[0]
	out := make([]*binding, len(src))
	for i, b := range src {
		out[i] = &binding{names: b.names, table: b.table, row: nil}
	}
	return out
}

// naturalMatch equates the values of all same-named columns.
func naturalMatch(l, r []*binding) bool {
	for _, lb := range l {
		for _, rb := range r {
			for name, li := range lb.table.colIdx {
				ri, ok := rb.table.colIdx[name]
				if !ok {
					continue
				}
				if lb.row == nil || rb.row == nil {
					return false
				}
				if !lb.row[li].Equal(rb.row[ri]) {
					return false
				}
			}
		}
	}
	return true
}

func dedupeRows(rows [][]Value) [][]Value {
	seen := make(map[string]struct{}, len(rows))
	out := rows[:0]
	for _, r := range rows {
		key := rowKey(r)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, r)
	}
	return out
}

func rowKey(r []Value) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.String())
		b.WriteByte('\x00')
	}
	return b.String()
}

// executePlain projects non-aggregate queries and applies ORDER BY.
func (db *DB) executePlain(sel *sqlparser.SelectStatement, envs []*env) (*ResultSet, error) {
	cols := db.projectionColumns(sel, envs)
	rs := &ResultSet{Columns: cols}
	type sortable struct {
		row  []Value
		keys []Value
	}
	var items []sortable
	for _, e := range envs {
		row, err := db.projectRow(sel, e, nil)
		if err != nil {
			return nil, err
		}
		var keys []Value
		for _, o := range sel.OrderBy {
			v, err := db.evalScalar(o.Expr, e, nil)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		items = append(items, sortable{row, keys})
	}
	sortRows(items, sel.OrderBy, func(s sortable) []Value { return s.keys })
	for _, it := range items {
		rs.Rows = append(rs.Rows, it.row)
	}
	return rs, nil
}

func sortRows[T any](items []T, order []sqlparser.OrderItem, keys func(T) []Value) {
	if len(order) == 0 {
		return
	}
	sort.SliceStable(items, func(i, j int) bool {
		ki, kj := keys(items[i]), keys(items[j])
		for x := range order {
			c, ok := ki[x].Compare(kj[x])
			if !ok || c == 0 {
				continue
			}
			if order[x].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// projectionColumns derives output column names.
func (db *DB) projectionColumns(sel *sqlparser.SelectStatement, envs []*env) []string {
	var sample *env
	if len(envs) > 0 {
		sample = envs[0]
	}
	var cols []string
	for _, item := range sel.Select {
		switch {
		case item.Star && item.StarTable == "":
			if sample != nil {
				for _, b := range sample.bindings {
					for _, c := range b.table.Columns {
						cols = append(cols, b.table.Name+"."+c)
					}
				}
			} else {
				cols = append(cols, "*")
			}
		case item.Star:
			if sample != nil {
				for _, b := range sample.bindings {
					if b.matches(item.StarTable) {
						for _, c := range b.table.Columns {
							cols = append(cols, b.table.Name+"."+c)
						}
					}
				}
			} else {
				cols = append(cols, item.StarTable+".*")
			}
		case item.Alias != "":
			cols = append(cols, item.Alias)
		default:
			// Qualify plain column references with their owning table so
			// result boxes carry canonical dimension names.
			if cr, ok := item.Expr.(*sqlparser.ColumnRef); ok && sample != nil {
				if name, ok := qualifyColumn(cr, sample); ok {
					cols = append(cols, name)
					break
				}
			}
			cols = append(cols, sqlparser.FormatExpr(item.Expr))
		}
	}
	return cols
}

// projectRow evaluates the select list for one env (agg == nil) or one
// group (agg != nil).
func (db *DB) projectRow(sel *sqlparser.SelectStatement, e *env, agg *aggContext) ([]Value, error) {
	var row []Value
	for _, item := range sel.Select {
		switch {
		case item.Star && item.StarTable == "":
			for _, b := range e.bindings {
				row = append(row, starValues(b)...)
			}
		case item.Star:
			for _, b := range e.bindings {
				if b.matches(item.StarTable) {
					row = append(row, starValues(b)...)
				}
			}
		default:
			v, err := db.evalScalar(item.Expr, e, agg)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
	}
	return row, nil
}

// qualifyColumn resolves a column reference to "Table.column" using the
// sample env's bindings.
func qualifyColumn(cr *sqlparser.ColumnRef, sample *env) (string, bool) {
	for cur := sample; cur != nil; cur = cur.parent {
		for _, b := range cur.bindings {
			if cr.Table != "" && !b.matches(cr.Table) {
				continue
			}
			if _, ok := b.table.ColumnIndex(cr.Name); ok {
				return b.table.Name + "." + cr.Name, true
			}
		}
	}
	return "", false
}

func starValues(b *binding) []Value {
	if b.row != nil {
		return b.row
	}
	out := make([]Value, len(b.table.Columns))
	for i := range out {
		out[i] = NullValue()
	}
	return out
}
