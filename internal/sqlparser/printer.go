package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatSelect renders a SELECT statement back to SQL text. The output is
// canonical (keywords upper-cased, single spaces) and re-parses to an
// equivalent AST.
func FormatSelect(s *SelectStatement) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Top != nil {
		if s.TopPercent {
			fmt.Fprintf(&b, "TOP %s PERCENT ", fnumText(*s.Top))
		} else {
			fmt.Fprintf(&b, "TOP %s ", fnumText(*s.Top))
		}
	}
	for i, item := range s.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(formatSelectItem(item))
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, te := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatTableExpr(te))
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(FormatExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatExpr(e))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(FormatExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(FormatExpr(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %s", fnumText(*s.Limit))
	}
	for _, arm := range s.Unions {
		b.WriteString(" UNION ")
		if arm.All {
			b.WriteString("ALL ")
		}
		b.WriteString(FormatSelect(arm.Select))
	}
	return b.String()
}

func formatSelectItem(item SelectItem) string {
	if item.Star {
		if item.StarTable != "" {
			return quoteDotted(item.StarTable) + ".*"
		}
		return "*"
	}
	out := FormatExpr(item.Expr)
	if item.Alias != "" {
		out += " AS " + quoteIdent(item.Alias)
	}
	return out
}

// FormatTableExpr renders a FROM-clause factor.
func FormatTableExpr(te TableExpr) string {
	switch t := te.(type) {
	case *TableName:
		if t.Alias != "" {
			return quoteDotted(t.Name) + " AS " + quoteIdent(t.Alias)
		}
		return quoteDotted(t.Name)
	case *Join:
		head := t.Type.String()
		if t.Natural {
			head = "NATURAL " + head
		}
		out := FormatTableExpr(t.Left) + " " + head + " " + FormatTableExpr(t.Right)
		if t.On != nil {
			out += " ON " + FormatExpr(t.On)
		}
		return out
	case *SubqueryTable:
		out := "(" + FormatSelect(t.Select) + ")"
		if t.Alias != "" {
			out += " AS " + quoteIdent(t.Alias)
		}
		return out
	default:
		return fmt.Sprintf("<%T>", te)
	}
}

// precedence for parenthesisation during printing; higher binds tighter.
func exprPrec(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "OR":
			return 1
		case "AND":
			return 2
		case "=", "<>", "<", "<=", ">", ">=":
			return 4
		case "+", "-", "||":
			return 5
		default: // *, /, %
			return 6
		}
	case *UnaryExpr:
		if x.Op == "NOT" {
			return 3
		}
		return 7
	case *BetweenExpr, *InListExpr, *InSubqueryExpr, *LikeExpr, *IsNullExpr, *QuantifiedExpr:
		return 4
	default:
		return 8
	}
}

func formatChild(child Expr, parentPrec int) string {
	s := FormatExpr(child)
	if exprPrec(child) < parentPrec {
		return "(" + s + ")"
	}
	return s
}

// FormatExpr renders an expression with minimal parentheses.
func FormatExpr(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table == "" {
			return quoteIdent(x.Name)
		}
		return quoteDotted(x.Table) + "." + quoteIdent(x.Name)
	case *NumberLit:
		if x.Text != "" {
			return x.Text
		}
		return fnumText(x.Value)
	case *StringLit:
		return "'" + strings.ReplaceAll(x.Value, "'", "''") + "'"
	case *NullLit:
		return "NULL"
	case *ParamRef:
		return x.Name
	case *BinaryExpr:
		p := exprPrec(x)
		// Right child needs parens at equal precedence to preserve shape
		// for non-associative comparison chains; AND/OR are associative so
		// equal precedence on the right is fine too, but re-parsing either
		// way yields an equivalent tree.
		return formatChild(x.L, p) + " " + x.Op + " " + formatChild(x.R, p+boolToInt(!isAssociative(x.Op)))
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "NOT " + formatChild(x.X, 4)
		}
		return x.Op + formatChild(x.X, 7)
	case *BetweenExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return formatChild(x.X, 5) + " " + not + "BETWEEN " + formatChild(x.Lo, 5) + " AND " + formatChild(x.Hi, 5)
	case *InListExpr:
		parts := make([]string, len(x.List))
		for i, e := range x.List {
			parts[i] = FormatExpr(e)
		}
		not := ""
		if x.Not {
			not = "NOT "
		}
		return formatChild(x.X, 5) + " " + not + "IN (" + strings.Join(parts, ", ") + ")"
	case *InSubqueryExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return formatChild(x.X, 5) + " " + not + "IN (" + FormatSelect(x.Sub) + ")"
	case *ExistsExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return not + "EXISTS (" + FormatSelect(x.Sub) + ")"
	case *QuantifiedExpr:
		q := "ANY"
		if x.All {
			q = "ALL"
		}
		return formatChild(x.X, 5) + " " + x.Op + " " + q + " (" + FormatSelect(x.Sub) + ")"
	case *ScalarSubquery:
		return "(" + FormatSelect(x.Sub) + ")"
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = FormatExpr(a)
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return x.Name + "(" + d + strings.Join(parts, ", ") + ")"
	case *LikeExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return formatChild(x.X, 5) + " " + not + "LIKE " + FormatExpr(x.Pattern)
	case *IsNullExpr:
		not := ""
		if x.Not {
			not = "NOT "
		}
		return formatChild(x.X, 5) + " IS " + not + "NULL"
	case *CaseExpr:
		var b strings.Builder
		b.WriteString("CASE")
		if x.Operand != nil {
			b.WriteString(" " + FormatExpr(x.Operand))
		}
		for _, w := range x.Whens {
			b.WriteString(" WHEN " + FormatExpr(w.When) + " THEN " + FormatExpr(w.Then))
		}
		if x.Else != nil {
			b.WriteString(" ELSE " + FormatExpr(x.Else))
		}
		b.WriteString(" END")
		return b.String()
	default:
		return fmt.Sprintf("<%T>", e)
	}
}

func isAssociative(op string) bool {
	switch op {
	case "AND", "OR", "+", "*", "||":
		return true
	}
	return false
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func fnumText(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// quoteIdent brackets an identifier when it needs quoting (reserved word,
// spaces, punctuation) so printed statements re-parse.
func quoteIdent(s string) string {
	if !identNeedsQuoting(s) {
		return s
	}
	return "[" + s + "]"
}

func identNeedsQuoting(s string) bool {
	if s == "" {
		return true
	}
	if reserved[strings.ToUpper(s)] {
		return true
	}
	for i, r := range s {
		if i == 0 && !isIdentStart(r) {
			return true
		}
		if i > 0 && !isIdentPart(r) {
			return true
		}
	}
	return false
}

// quoteDotted quotes each segment of a dotted name independently.
func quoteDotted(name string) string {
	parts := strings.Split(name, ".")
	for i, p := range parts {
		parts[i] = quoteIdent(p)
	}
	return strings.Join(parts, ".")
}
