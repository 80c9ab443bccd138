package distance

import (
	"math"

	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/predicate"
)

// Profile is the precompiled form of an access area used during clustering:
// tables as a set, and per-predicate clipped/normalised geometry so the hot
// O(n²) distance loop performs no stats lookups.
type Profile struct {
	// Tables is the sorted relation list of the access area.
	Tables   []string
	tableSet map[string]struct{}
	clauses  []clauseProfile
	// Area retains the source access area for reporting.
	Area *extract.AccessArea
}

type predKind int

const (
	kindNumeric predKind = iota
	kindString
	kindColCol
)

type predProfile struct {
	kind    predKind
	column  string
	column2 string
	op      predicate.Op

	// Numeric: predicate hull clipped to access(a).
	iv          interval.Interval
	accessWidth float64
	frac        float64 // occupied fraction of access(a)

	// Categorical: value set (for NE: access(a) minus the value).
	strSet     map[string]struct{}
	accessCard int
}

type clauseProfile []predProfile

// Profile precompiles an access area against the metric's statistics.
func (m *Metric) Profile(a *extract.AccessArea) *Profile {
	p := &Profile{
		Tables:   a.Relations,
		tableSet: make(map[string]struct{}, len(a.Relations)),
		Area:     a,
	}
	for _, t := range a.Relations {
		p.tableSet[t] = struct{}{}
	}
	p.clauses = make([]clauseProfile, 0, len(a.CNF))
	for _, cl := range a.CNF {
		cp := make(clauseProfile, 0, len(cl))
		for _, pr := range cl {
			if pr.Kind == predicate.TruePred || pr.Kind == predicate.FalsePred {
				continue
			}
			cp = append(cp, m.compilePred(pr))
		}
		if len(cp) > 0 {
			p.clauses = append(p.clauses, cp)
		}
	}
	return p
}

// compilePred precomputes the geometry of one atomic predicate.
func (m *Metric) compilePred(p predicate.Pred) predProfile {
	switch {
	case p.Kind == predicate.ColumnColumn:
		return predProfile{kind: kindColCol, column: p.Column, column2: p.Column2, op: p.Op, frac: 1}
	case p.Val.Kind == predicate.StringVal:
		return m.compileCategorical(p)
	default:
		return m.compileNumeric(p)
	}
}

func (m *Metric) compileNumeric(p predicate.Pred) predProfile {
	set, _ := p.Interval()
	access := m.accessInterval(p.Column, set)
	clipped := set.Clip(access).Hull()
	w := access.Width()
	if clipped.IsEmpty() {
		// The predicate range lies entirely outside access(a) (possible
		// when stats were seeded externally): collapse to the nearest
		// access bound.
		nearest := access.Lo
		if h := set.Hull(); !h.IsEmpty() && !math.IsInf(h.Lo, -1) && h.Lo > access.Hi {
			nearest = access.Hi
		}
		clipped = interval.Point(nearest)
	}
	frac := 1.0
	if w > 0 && !math.IsInf(w, 1) {
		frac = set.Clip(access).Width() / w
	} else if clipped.IsPoint() {
		frac = 0
	}
	return predProfile{
		kind:        kindNumeric,
		column:      p.Column,
		op:          p.Op,
		iv:          clipped,
		accessWidth: w,
		frac:        frac,
	}
}

// accessInterval returns access(a) for a column, falling back to the hull
// of the predicate's own range when the registry has never seen the column.
func (m *Metric) accessInterval(column string, set interval.Set) interval.Interval {
	if m.Stats != nil {
		if acc, ok := m.Stats.NumericAccess(column); ok && !acc.IsEmpty() && acc.Width() > 0 {
			return acc
		}
	}
	h := set.Hull()
	if h.IsEmpty() || math.IsInf(h.Lo, 0) || math.IsInf(h.Hi, 0) {
		return interval.Closed(-1, 1)
	}
	if h.Width() == 0 {
		return interval.Closed(h.Lo-1, h.Hi+1)
	}
	return h
}

func (m *Metric) compileCategorical(p predicate.Pred) predProfile {
	var accessVals map[string]struct{}
	if m.Stats != nil {
		accessVals, _ = m.Stats.CategoricalAccess(p.Column)
	}
	if accessVals == nil {
		accessVals = map[string]struct{}{p.Val.Str: {}}
	}
	set := make(map[string]struct{})
	if p.Op == predicate.Ne {
		for v := range accessVals {
			if v != p.Val.Str {
				set[v] = struct{}{}
			}
		}
	} else {
		// =, and conservatively any ordered comparison, selects the value
		// itself; ordered string comparisons are rare in the log.
		set[p.Val.Str] = struct{}{}
	}
	card := len(accessVals)
	if card == 0 {
		card = 1
	}
	frac := float64(len(set)) / float64(card)
	return predProfile{
		kind:       kindString,
		column:     p.Column,
		op:         p.Op,
		strSet:     set,
		accessCard: card,
		frac:       frac,
	}
}

// ReadColumns returns the columns whose access(a) registry entries Profile
// reads when compiling area a — the column of every numeric and categorical
// predicate; column-column predicates read none — deduplicated, in
// first-use order. A profile can change between two registry generations
// only if one of these columns changed (schema.Stats.ChangedSince).
func ReadColumns(a *extract.AccessArea) []string {
	var cols []string
	for _, cl := range a.CNF {
		for _, pr := range cl {
			switch pr.Kind {
			case predicate.TruePred, predicate.FalsePred, predicate.ColumnColumn:
				continue
			}
			if !containsString(cols, pr.Column) {
				cols = append(cols, pr.Column)
			}
		}
	}
	return cols
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
