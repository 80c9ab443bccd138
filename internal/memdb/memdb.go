// Package memdb is a small in-memory relational engine. It stands in for
// the live SkyServer database in this reproduction (see DESIGN.md §1): the
// paper needs a queryable database only to (a) sample content(a) statistics
// (Section 5.3) and (b) run the re-querying baseline of Section 6.6, and
// both require nothing more than a consistent relational state with
// realistic content bounding boxes.
//
// The engine executes the parsed SELECT dialect of internal/sqlparser:
// joins (inner, cross, natural, left/right/full outer), WHERE with nested
// subqueries (EXISTS, IN, quantified, scalar), GROUP BY with the aggregate
// functions of Section 4.3, HAVING, DISTINCT, ORDER BY and TOP/LIMIT. It
// also simulates SkyServer's operational errors: the output row cap ("limit
// is top 500000") and the per-user rate limit ("Maximum 60 queries allowed
// per minute").
//
// NULL handling is simplified to two-valued logic (comparisons involving
// NULL are false); the substrate's synthetic data contains no NULLs.
package memdb

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/interval"
	"repro/internal/schema"
)

// Value is one cell value.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
}

// ValueKind discriminates cell types.
type ValueKind int

const (
	Null ValueKind = iota
	Num
	Str
)

// N builds a numeric value.
func N(v float64) Value { return Value{Kind: Num, Num: v} }

// S builds a string value.
func S(v string) Value { return Value{Kind: Str, Str: v} }

// NullValue is the NULL cell.
func NullValue() Value { return Value{Kind: Null} }

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case Null:
		return "NULL"
	case Num:
		return fmt.Sprintf("%g", v.Num)
	default:
		return "'" + v.Str + "'"
	}
}

// Equal compares two values for equality (NULL never equals anything).
func (v Value) Equal(o Value) bool {
	if v.Kind == Null || o.Kind == Null {
		return false
	}
	if v.Kind != o.Kind {
		return false
	}
	if v.Kind == Num {
		return v.Num == o.Num
	}
	return v.Str == o.Str
}

// Compare returns -1/0/1; ok is false when either side is NULL or the kinds
// differ.
func (v Value) Compare(o Value) (int, bool) {
	if v.Kind == Null || o.Kind == Null || v.Kind != o.Kind {
		return 0, false
	}
	if v.Kind == Num {
		switch {
		case v.Num < o.Num:
			return -1, true
		case v.Num > o.Num:
			return 1, true
		default:
			return 0, true
		}
	}
	return strings.Compare(v.Str, o.Str), true
}

// Table is a named relation with positional rows.
type Table struct {
	Name    string
	Columns []string
	colIdx  map[string]int
	Rows    [][]Value
}

// ColumnIndex returns the position of the (case-insensitive) column. An
// ASCII name of up to 64 bytes is lowered into a stack buffer, so the
// lookup does not allocate; other names go through strings.ToLower.
func (t *Table) ColumnIndex(name string) (int, bool) {
	var buf [64]byte
	if len(name) > len(buf) {
		i, ok := t.colIdx[strings.ToLower(name)]
		return i, ok
	}
	low := buf[:len(name)]
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			ci, ok := t.colIdx[strings.ToLower(name)]
			return ci, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	i, ok := t.colIdx[string(low)]
	return i, ok
}

// DB is a set of tables.
type DB struct {
	Schema *schema.Schema
	tables map[string]*Table
}

// New returns an empty database over the given schema (which may be nil).
func New(s *schema.Schema) *DB {
	return &DB{Schema: s, tables: make(map[string]*Table)}
}

// CreateTable registers a table with the given columns, replacing any
// previous table of the same name.
func (db *DB) CreateTable(name string, columns ...string) *Table {
	t := &Table{Name: name, Columns: columns, colIdx: make(map[string]int, len(columns))}
	for i, c := range columns {
		t.colIdx[strings.ToLower(c)] = i
	}
	db.tables[strings.ToLower(name)] = t
	return t
}

// Table returns the named table or nil.
func (db *DB) Table(name string) *Table {
	if i := strings.LastIndex(name, "."); i >= 0 {
		name = name[i+1:]
	}
	return db.tables[strings.ToLower(name)]
}

// Insert appends a row; the row length must match the column count.
func (db *DB) Insert(table string, row ...Value) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("memdb: unknown table %q", table)
	}
	if len(row) != len(t.Columns) {
		return fmt.Errorf("memdb: row width %d != %d columns of %s", len(row), len(t.Columns), t.Name)
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// Tables returns all table names in sorted order.
func (db *DB) Tables() []string {
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// ContentInterval computes content(a) — the minimum bounding interval of a
// numeric column's data (Section 2.1). Column is qualified "Table.column".
func (db *DB) ContentInterval(column string) (interval.Interval, bool) {
	rel, col, ok := splitQualified(column)
	if !ok {
		return interval.Interval{}, false
	}
	t := db.Table(rel)
	if t == nil {
		return interval.Interval{}, false
	}
	ci, ok := t.ColumnIndex(col)
	if !ok {
		return interval.Interval{}, false
	}
	first := true
	var lo, hi float64
	for _, row := range t.Rows {
		v := row[ci]
		if v.Kind != Num {
			continue
		}
		if first {
			lo, hi = v.Num, v.Num
			first = false
			continue
		}
		if v.Num < lo {
			lo = v.Num
		}
		if v.Num > hi {
			hi = v.Num
		}
	}
	if first {
		return interval.Interval{}, false
	}
	return interval.Closed(lo, hi), true
}

// ContentValues returns the distinct values of a categorical column.
func (db *DB) ContentValues(column string) ([]string, bool) {
	rel, col, ok := splitQualified(column)
	if !ok {
		return nil, false
	}
	t := db.Table(rel)
	if t == nil {
		return nil, false
	}
	ci, ok := t.ColumnIndex(col)
	if !ok {
		return nil, false
	}
	set := make(map[string]struct{})
	for _, row := range t.Rows {
		if row[ci].Kind == Str {
			set[row[ci].Str] = struct{}{}
		}
	}
	if len(set) == 0 {
		return nil, false
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out, true
}

// SampleColumn returns up to n numeric values of a column, mimicking the
// Section 5.3 sampling used to seed content(a).
func (db *DB) SampleColumn(column string, n int) []float64 {
	rel, col, ok := splitQualified(column)
	if !ok {
		return nil
	}
	t := db.Table(rel)
	if t == nil {
		return nil
	}
	ci, ok := t.ColumnIndex(col)
	if !ok {
		return nil
	}
	var out []float64
	step := 1
	if len(t.Rows) > n && n > 0 {
		step = len(t.Rows) / n
	}
	for i := 0; i < len(t.Rows) && len(out) < n; i += step {
		if v := t.Rows[i][ci]; v.Kind == Num {
			out = append(out, v.Num)
		}
	}
	return out
}

// ObjectFraction implements aggregate.DataSource: the fraction of objects
// of the given relations inside box and matching the categorical
// equalities. For a multi-relation area the per-relation fractions multiply
// (the universal relation is the product space). The region is compiled
// against each table once (compileFilter), so the row loop neither
// allocates nor resolves a column name.
func (db *DB) ObjectFraction(relations []string, box *interval.Box, categorical map[string][]string) float64 {
	frac := 1.0
	for _, rel := range relations {
		t := db.Table(rel)
		if t == nil || len(t.Rows) == 0 {
			continue
		}
		f := compileFilter(t, box, categorical)
		matched := 0
		for _, row := range t.Rows {
			if f.match(row) {
				matched++
			}
		}
		frac *= float64(matched) / float64(len(t.Rows))
	}
	return frac
}

// Restrict returns the sub-database covering an aggregated access area:
// for each listed relation present in db, a table holding exactly the rows
// whose numeric columns fall inside box and whose categorical columns match
// one of the given values (case-insensitively, mirroring query evaluation).
// Box dimensions and categorical columns are qualified "Table.column";
// entries for other relations or unknown columns are ignored, exactly as in
// ObjectFraction. Relations absent from db are skipped. The tables hold
// db's own row slices, in source order, so nothing is copied: the result is
// the read-only view a semantic-cache region serves from, and db must not
// be written while it is in use.
func (db *DB) Restrict(relations []string, box *interval.Box, categorical map[string][]string) *DB {
	out := New(db.Schema)
	for _, rel := range relations {
		t := db.Table(rel)
		if t == nil || out.Table(t.Name) != nil {
			continue
		}
		nt := out.CreateTable(t.Name, t.Columns...)
		f := compileFilter(t, box, categorical)
		for _, row := range t.Rows {
			if f.match(row) {
				nt.Rows = append(nt.Rows, row)
			}
		}
	}
	return out
}

// rowFilter is a region's box and categorical constraints resolved against
// one table: the position of every column they constrain and what its cell
// must hold. Constraints on other relations, or on columns the table lacks,
// are dropped when compiling — the same entries a region test ignores.
type rowFilter struct {
	nums []numConstraint
	strs []strConstraint
}

// numConstraint admits a cell only if it is a number inside iv.
type numConstraint struct {
	col int
	iv  interval.Interval
}

// strConstraint admits a cell only if it is a string equal, ignoring case,
// to one of vals.
type strConstraint struct {
	col  int
	vals []string
}

// compileFilter resolves box and categorical against t. Relation names
// match case-insensitively, as do column names (Table.ColumnIndex).
func compileFilter(t *Table, box *interval.Box, categorical map[string][]string) rowFilter {
	var f rowFilter
	for _, col := range box.Dims() {
		if ci, ok := t.qualifiedIndex(col); ok {
			f.nums = append(f.nums, numConstraint{ci, box.Get(col)})
		}
	}
	for col, vals := range categorical {
		if ci, ok := t.qualifiedIndex(col); ok {
			f.strs = append(f.strs, strConstraint{ci, vals})
		}
	}
	return f
}

// qualifiedIndex resolves a "Table.column" name against t: ok is false when
// the name is unqualified, names another relation or an unknown column.
func (t *Table) qualifiedIndex(name string) (int, bool) {
	rel, col, ok := splitQualified(name)
	if !ok || !strings.EqualFold(rel, t.Name) {
		return 0, false
	}
	return t.ColumnIndex(col)
}

// match reports whether row satisfies every compiled constraint.
func (f *rowFilter) match(row []Value) bool {
	for _, c := range f.nums {
		v := row[c.col]
		if v.Kind != Num || !c.iv.Contains(v.Num) {
			return false
		}
	}
	for _, c := range f.strs {
		v := row[c.col]
		if v.Kind != Str {
			return false
		}
		found := false
		for _, want := range c.vals {
			if strings.EqualFold(v.Str, want) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func splitQualified(name string) (rel, col string, ok bool) {
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return "", name, false
	}
	return name[:i], name[i+1:], true
}
