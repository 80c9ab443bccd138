package extract

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"

	"repro/internal/predicate"
	"repro/internal/sqlparser"
)

// MaxShapesPerTemplate bounds the order patterns one template remembers a
// shape for (DESIGN.md §9). A binding whose pattern is new once the bound is
// reached takes the slow path and is counted in
// skyaccess_extract_shape_refusals_total.
const MaxShapesPerTemplate = 16

// maxPlanValues is the most constants one column may carry for a template to
// keep shapes at all: the pattern grows with the square of it, and a long IN
// list rarely repeats its order, so such a template always takes the slow
// path.
const maxPlanValues = 8

// orderPlan names, per column, the constants whose comparisons decide the
// shape of a consolidated CNF. CNF conversion and consolidation look at the
// values only through comparisons between constants on one column: numeric
// order (interval union and intersection, fullness, contradiction), string
// equality, and the byte order of Pred.Key (normalisation sorts, dedup,
// absorption, and the originals consolidation restores). A binding's order
// pattern is the outcome of every such comparison, so two bindings with one
// pattern consolidate to CNFs of one shape with values in the same places.
type orderPlan struct {
	cols []orderCol
}

// orderCol is one column's part of the plan.
type orderCol struct {
	name string
	// vals are the template's constants on the column, slotted or fixed, in
	// leaf order.
	vals []predicate.Value
	// fixed are key suffixes a value's key suffix can sort against: "=" and
	// ">" (a value after "<" or ">" meets the second byte of "<=", "<>" or
	// ">=") and the right-hand column of each column-column leaf.
	fixed []string
}

// newOrderPlan builds the plan of a template's constraint, or returns nil
// when the template keeps no shapes: a column name holding an operator byte
// would let keys of two columns sort by value, and a column with more than
// maxPlanValues constants makes the pattern too long to pay.
func newOrderPlan(constraint predicate.Expr) *orderPlan {
	pl := &orderPlan{}
	index := make(map[string]int)
	col := func(name string) *orderCol {
		i, ok := index[name]
		if !ok {
			i = len(pl.cols)
			index[name] = i
			pl.cols = append(pl.cols, orderCol{name: name, fixed: []string{"=", ">"}})
		}
		return &pl.cols[i]
	}
	ok := true
	var walk func(e predicate.Expr)
	walk = func(e predicate.Expr) {
		switch x := e.(type) {
		case *predicate.Leaf:
			p := x.P
			switch p.Kind {
			case predicate.ColumnConstant:
				ok = ok && !strings.ContainsAny(p.Column, "<=>")
				c := col(p.Column)
				c.vals = append(c.vals, p.Val)
				ok = ok && len(c.vals) <= maxPlanValues
			case predicate.ColumnColumn:
				ok = ok && !strings.ContainsAny(p.Column+p.Column2, "<=>")
				c := col(p.Column)
				c.fixed = append(c.fixed, p.Column2)
			}
		case *predicate.Not:
			walk(x.Kid)
		case *predicate.And:
			for _, k := range x.Kids {
				walk(k)
			}
		case *predicate.Or:
			for _, k := range x.Kids {
				walk(k)
			}
		}
	}
	walk(constraint)
	if !ok {
		return nil
	}
	return pl
}

// pattern returns the order pattern of the template's constants bound to
// lits: per column, for every pair of key suffixes (a value against a value
// or a fixed suffix) their byte order, and for every pair of numbers their
// numeric order, ties included. ok is false when the pattern would not fix
// every comparison: a key suffix that is a proper prefix of another (joined
// clause keys then sort by the separator that follows), a NaN or an infinity
// (interval code compares bounds against the infinities too), or a slot
// past the end of lits.
func (pl *orderPlan) pattern(lits []sqlparser.Literal) (pat []byte, ok bool) {
	var (
		keyBuf [512]byte
		endBuf [2 * maxPlanValues]int
		numBuf [maxPlanValues]float64
	)
	for _, c := range pl.cols {
		buf, ends, nums := keyBuf[:0], endBuf[:0], numBuf[:0]
		for _, v := range c.vals {
			if v.Slot > len(lits) {
				return nil, false
			}
			var num float64
			buf, num = appendBoundKey(buf, v, lits)
			if math.IsNaN(num) || math.IsInf(num, 0) {
				return nil, false
			}
			ends = append(ends, len(buf))
			nums = append(nums, num)
		}
		for _, f := range c.fixed {
			buf = append(buf, f...)
			ends = append(ends, len(buf))
		}
		key := func(i int) []byte {
			if i == 0 {
				return buf[:ends[0]]
			}
			return buf[ends[i-1]:ends[i]]
		}
		for i := range c.vals {
			for j := i + 1; j < len(ends); j++ {
				a, b := key(i), key(j)
				if len(a) != len(b) && (bytes.HasPrefix(a, b) || bytes.HasPrefix(b, a)) {
					return nil, false
				}
				pat = append(pat, byte(bytes.Compare(a, b)+1))
				if j < len(c.vals) && c.vals[i].Kind == predicate.NumberVal && c.vals[j].Kind == predicate.NumberVal {
					pat = append(pat, cmpNum(nums[i], nums[j]))
				}
			}
		}
	}
	return pat, true
}

// appendBoundKey appends the value suffix of Pred.Key for v bound to lits,
// and returns the bound number (0 for a string).
func appendBoundKey(dst []byte, v predicate.Value, lits []sqlparser.Literal) ([]byte, float64) {
	if v.Kind == predicate.StringVal {
		str := v.Str
		if v.Slot > 0 && v.Slot <= len(lits) {
			str = lits[v.Slot-1].Str
		}
		dst = append(dst, '\'')
		dst = append(dst, str...)
		return append(dst, '\''), 0
	}
	num := boundNum(v, lits)
	return strconv.AppendUint(dst, math.Float64bits(num), 16), num
}

// boundNum is the number substValue gives v for lits.
func boundNum(v predicate.Value, lits []sqlparser.Literal) float64 {
	if v.Slot <= 0 || v.Slot > len(lits) {
		return v.Num
	}
	if v.NegDepth%2 == 1 {
		return -lits[v.Slot-1].Num
	}
	return lits[v.Slot-1].Num
}

func cmpNum(a, b float64) byte {
	switch {
	case a < b:
		return 0
	case a > b:
		return 2
	default:
		return 1
	}
}

// shape is the consolidated CNF of one (template, order pattern) pair, with
// every value that depends on the binding tagged by its source. Shapes are
// immutable once published.
type shape struct {
	pattern []byte
	// slow marks a pattern whose values' provenance could not be told apart:
	// its bindings take the slow path and learn nothing.
	slow      bool
	cnf       predicate.CNF
	subs      []shapeSub
	truncated bool
}

// shapeSub says where one value of a shape's CNF comes from.
type shapeSub struct {
	clause, pred int
	// intact marks a verbatim copy of a slotted constant, rebound as tier A
	// rebinds (substValue: number or string, source Text, Slot and
	// NegDepth). Otherwise the value was rebuilt from an interval bound:
	// only its number follows slot, negated when the source constant folded
	// an odd number of minus signs.
	intact bool
	slot   int
	negate bool
}

// bind instantiates the shape for lits.
func (s *shape) bind(lits []sqlparser.Literal) predicate.CNF {
	cnf := cloneCNF(s.cnf)
	for _, sub := range s.subs {
		p := &cnf[sub.clause][sub.pred]
		if sub.intact {
			p.Val = substValue(p.Val, lits)
			continue
		}
		num := lits[sub.slot-1].Num
		if sub.negate {
			num = -num
		}
		p.Val.Num = num
	}
	return cnf
}

// cloneCNF is a deep copy that, unlike CNF.Clone, keeps a nil CNF (TRUE)
// nil and an empty clause (FALSE) non-nil, as consolidation returns them.
func cloneCNF(c predicate.CNF) predicate.CNF {
	if c == nil {
		return nil
	}
	out := make(predicate.CNF, len(c))
	for i, cl := range c {
		out[i] = append(make(predicate.Clause, 0, len(cl)), cl...)
	}
	return out
}

// learnShape records the slow path's result cnf for a binding lits with
// pattern pat. Each constant of cnf is traced to its source: a slotted
// constant copied verbatim carries its Slot; a number rebuilt from interval
// bounds matches, bit for bit, a constant on its column (any match will do,
// since the pattern ties equal keys in every binding); anything else is a
// fixed constant of the template. When a value cannot be traced, or the
// shape does not reproduce cnf for lits, the pattern is stored as slow.
func (t *AreaTemplate) learnShape(pat []byte, lits []sqlparser.Literal, cnf predicate.CNF, truncated bool) {
	if p := t.shapes.Load(); p != nil && len(*p) >= MaxShapesPerTemplate {
		shapeRefusals.Inc()
		return
	}
	sh := &shape{pattern: append([]byte(nil), pat...), cnf: cloneCNF(cnf), truncated: truncated}
	ok := true
	for i, cl := range cnf {
		for j, p := range cl {
			if !ok || p.Kind != predicate.ColumnConstant {
				continue
			}
			switch v := p.Val; {
			case v.Slot > 0:
				sh.subs = append(sh.subs, shapeSub{clause: i, pred: j, intact: true})
			case v.Kind == predicate.NumberVal:
				src, found := t.order.source(p.Column, v, lits)
				ok = found
				if found && src.Slot > 0 {
					sh.subs = append(sh.subs, shapeSub{clause: i, pred: j, slot: src.Slot, negate: src.NegDepth%2 == 1})
				}
			}
		}
	}
	if ok {
		got := sh.bind(lits)
		ok = reflect.DeepEqual(got, cnf) && got.Key() == cnf.Key()
	}
	if !ok {
		sh = &shape{pattern: sh.pattern, slow: true}
	}
	t.storeShape(sh)
}

// source finds the template constant on column that a Slot-less number v of
// the consolidated CNF came from: a slotted constant whose bound number has
// v's bits when v was rebuilt from interval bounds (no Text, no folded sign),
// else a fixed constant with v's bits.
func (pl *orderPlan) source(column string, v predicate.Value, lits []sqlparser.Literal) (predicate.Value, bool) {
	rebuilt := v.Text == "" && v.NegDepth == 0
	for _, c := range pl.cols {
		if c.name != column {
			continue
		}
		found := false
		var fixed predicate.Value
		for _, cv := range c.vals {
			if cv.Kind != predicate.NumberVal {
				continue
			}
			same := math.Float64bits(boundNum(cv, lits)) == math.Float64bits(v.Num)
			switch {
			case same && cv.Slot > 0 && rebuilt:
				return cv, true
			case same && cv.Slot == 0 && !found:
				fixed, found = cv, true
			}
		}
		return fixed, found
	}
	return predicate.Value{}, false
}

// shapeFor returns the published shape for pat, or nil.
func (t *AreaTemplate) shapeFor(pat []byte) *shape {
	if p := t.shapes.Load(); p != nil {
		for _, s := range *p {
			if bytes.Equal(s.pattern, pat) {
				return s
			}
		}
	}
	return nil
}

// storeShape publishes sh copy-on-write, unless its pattern is already known
// or the template holds MaxShapesPerTemplate shapes.
func (t *AreaTemplate) storeShape(sh *shape) {
	t.shapeMu.Lock()
	defer t.shapeMu.Unlock()
	var cur []*shape
	if p := t.shapes.Load(); p != nil {
		cur = *p
	}
	for _, s := range cur {
		if bytes.Equal(s.pattern, sh.pattern) {
			return
		}
	}
	if len(cur) >= MaxShapesPerTemplate {
		shapeRefusals.Inc()
		return
	}
	next := make([]*shape, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, sh)
	t.shapes.Store(&next)
	if !sh.slow {
		shapeStores.Inc()
	}
}
