// Package distance implements the query distance function of Section 5:
//
//	d(q1, q2) = d_tables(q1.FROM, q2.FROM) + d_conj(q1.WHERE, q2.WHERE)
//
// with d_tables the Jaccard distance over relation sets (corner case: two
// table-free queries have distance 0) and d_conj/d_disj the min-matching
// averages of the paper over clauses and atomic predicates.
//
// For the innermost d_pred the paper's literal formula ("overlap of
// intervals / width of access(a)") is a similarity rather than a
// dissimilarity (identical predicates would score 0.6 on the paper's own
// example while disjoint ones score 0); see DESIGN.md §2. The package
// therefore ships two modes:
//
//   - ModeEndpoint (default): a proper metric on predicate ranges — the L∞
//     distance between access-normalised interval endpoints for same-column
//     numeric predicates, Jaccard distance for same-column categorical
//     predicates, and 1 − occupiedFraction₁·occupiedFraction₂ across
//     columns. Equality predicates with nearby constants come out close,
//     which is what lets DBSCAN density-chain the "Photoz.objid = c"
//     population into the paper's Cluster 1.
//   - ModePaperLiteral: the formulas as printed, with two repairs needed to
//     feed the result to DBSCAN at all — the paper normalises by the FIRST
//     argument's access stats, which is asymmetric whenever the two sides
//     fell back to different per-predicate access ranges, so both directions
//     are averaged; and structurally identical predicates short-circuit to
//     distance 0 (the printed overlap formula would score a predicate 0.6
//     away from itself on the paper's own example), making the literal
//     distance a pseudo-metric: d(p,p) = 0 and d(p,q) = d(q,p), the contract
//     dbscan.Cluster documents.
//
// Distances are computed on precompiled Profiles so the O(n²) clustering
// stage does no repeated interval clipping or stats lookups. For the bulk
// clustering path, Kernel repacks the profiles into a flat struct-of-arrays
// layout whose Distance produces bit-identical values with zero allocations
// per pair.
package distance

import (
	"fmt"
	"math"

	"repro/internal/extract"
	"repro/internal/predicate"
	"repro/internal/schema"
)

// Mode selects the d_pred formula.
type Mode int

const (
	// ModeEndpoint is the corrected metric (default; see package comment).
	ModeEndpoint Mode = iota
	// ModePaperLiteral applies Section 5.2 exactly as printed.
	ModePaperLiteral
)

func (m Mode) String() string {
	switch m {
	case ModeEndpoint:
		return "endpoint"
	case ModePaperLiteral:
		return "paper-literal"
	default:
		return "unknown"
	}
}

// ParseMode maps a command's -mode flag value, "endpoint" or "literal", to
// its Mode; any other value is an error.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "endpoint":
		return ModeEndpoint, nil
	case "literal":
		return ModePaperLiteral, nil
	}
	return 0, fmt.Errorf("unknown -mode %q (want endpoint or literal)", s)
}

// Metric computes distances between access areas.
type Metric struct {
	Mode  Mode
	Stats *schema.Stats
}

// New returns a Metric in the default mode over the given access statistics.
func New(stats *schema.Stats) *Metric {
	return &Metric{Stats: stats}
}

// Distance computes d(q1, q2) from raw access areas. For repeated use (e.g.
// clustering), precompile with Profile and use ProfileDistance.
func (m *Metric) Distance(a, b *extract.AccessArea) float64 {
	return m.ProfileDistance(m.Profile(a), m.Profile(b))
}

// ProfileDistance computes d_tables + d_conj on precompiled profiles.
func (m *Metric) ProfileDistance(p, q *Profile) float64 {
	profileEvalsTotal.Inc()
	return m.dTables(p, q) + m.dConj(p, q)
}

// DTables exposes the Jaccard table distance for tests and the OLAPClus
// baseline.
func (m *Metric) DTables(a, b []string) float64 {
	return jaccardDistance(a, b)
}

func jaccardDistance(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		// Corner case of Section 5.1: queries over database constants only.
		return 0
	}
	setB := make(map[string]struct{}, len(b))
	for _, t := range b {
		setB[t] = struct{}{}
	}
	inter := 0
	for _, t := range a {
		if _, ok := setB[t]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

func (m *Metric) dTables(p, q *Profile) float64 {
	if len(p.Tables) == 0 && len(q.Tables) == 0 {
		return 0
	}
	inter := 0
	for _, t := range p.Tables {
		if _, ok := q.tableSet[t]; ok {
			inter++
		}
	}
	union := len(p.Tables) + len(q.Tables) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// dConj is the min-matching average over clauses (Section 5.2).
func (m *Metric) dConj(p, q *Profile) float64 {
	b1, b2 := p.clauses, q.clauses
	if len(b1) == 0 && len(b2) == 0 {
		return 0
	}
	if len(b1) == 0 || len(b2) == 0 {
		return 1
	}
	// The two directions accumulate separately and combine with ONE
	// commutative addition, so d_conj(p,q) == d_conj(q,p) bit for bit (a
	// running sum across both loops would round differently per direction).
	sum1 := 0.0
	for _, o1 := range b1 {
		best := math.Inf(1)
		for _, o2 := range b2 {
			if d := m.dDisj(o1, o2); d < best {
				best = d
			}
		}
		sum1 += best
	}
	sum2 := 0.0
	for _, o2 := range b2 {
		best := math.Inf(1)
		for _, o1 := range b1 {
			if d := m.dDisj(o1, o2); d < best {
				best = d
			}
		}
		sum2 += best
	}
	return (sum1 + sum2) / float64(len(b1)+len(b2))
}

// dDisj is the min-matching average over the atomic predicates of two
// disjunctions.
func (m *Metric) dDisj(o1, o2 clauseProfile) float64 {
	if len(o1) == 0 && len(o2) == 0 {
		return 0
	}
	if len(o1) == 0 || len(o2) == 0 {
		return 1
	}
	// Separate per-side sums for exact symmetry, as in dConj.
	sum1 := 0.0
	for i := range o1 {
		best := math.Inf(1)
		for j := range o2 {
			if d := m.dPred(&o1[i], &o2[j]); d < best {
				best = d
			}
		}
		sum1 += best
	}
	sum2 := 0.0
	for j := range o2 {
		best := math.Inf(1)
		for i := range o1 {
			if d := m.dPred(&o1[i], &o2[j]); d < best {
				best = d
			}
		}
		sum2 += best
	}
	return (sum1 + sum2) / float64(len(o1)+len(o2))
}

// DPred exposes the atomic-predicate distance for tests.
func (m *Metric) DPred(p1, p2 predicate.Pred) float64 {
	pp1 := m.compilePred(p1)
	pp2 := m.compilePred(p2)
	return m.dPred(&pp1, &pp2)
}

func (m *Metric) dPred(p1, p2 *predProfile) float64 {
	if m.Mode == ModePaperLiteral && predProfilesEqual(p1, p2) {
		// The printed overlap formula is a similarity: without this rule a
		// predicate would sit a positive distance from itself (0.6 on the
		// paper's own example), and DBSCAN's density reachability assumes
		// d(p,p) = 0. Endpoint mode yields 0 for equal predicates naturally.
		return 0
	}
	switch {
	case p1.kind == kindColCol || p2.kind == kindColCol:
		return m.dPredColCol(p1, p2)
	case p1.column == p2.column:
		return m.dPredSameColumn(p1, p2)
	default:
		return m.dPredDifferentColumns(p1, p2)
	}
}

func (m *Metric) dPredColCol(p1, p2 *predProfile) float64 {
	if p1.kind != kindColCol || p2.kind != kindColCol {
		// Mixed kinds: structurally different constraints.
		if m.Mode == ModePaperLiteral {
			return 0
		}
		return 1
	}
	same := p1.column == p2.column && p1.column2 == p2.column2
	switch {
	case same && p1.op == p2.op:
		return 0
	case same:
		return 0.5
	default:
		return 1
	}
}

func (m *Metric) dPredSameColumn(p1, p2 *predProfile) float64 {
	if p1.kind != p2.kind {
		// Numeric vs string constant on the same column.
		if m.Mode == ModePaperLiteral {
			return 0
		}
		return 1
	}
	if p1.kind == kindString {
		return m.dPredCategorical(p1, p2)
	}
	// Each profile carries its own access(a) snapshot; when the registry
	// never saw the column the per-predicate hull fallback can differ
	// between the two sides, so normalising by p1's width alone made the
	// distance asymmetric. Averaging the two directions restores d(p,q) =
	// d(q,p); with shared stats (the common case) both directions are equal
	// and the average reproduces the single-direction value exactly.
	return (m.dirNumeric(p1, p2) + m.dirNumeric(p2, p1)) / 2
}

// dirNumeric is the one-directional same-column numeric d_pred, normalised
// by p1's access width.
func (m *Metric) dirNumeric(p1, p2 *predProfile) float64 {
	w := p1.accessWidth
	if w <= 0 {
		// Degenerate access range: identical constants only.
		if p1.iv.Equal(p2.iv) {
			return 0
		}
		if m.Mode == ModePaperLiteral {
			return 0
		}
		return 1
	}
	if m.Mode == ModePaperLiteral {
		// "overlap of intervals / width of access(a)".
		return p1.iv.OverlapLen(p2.iv) / w
	}
	// Endpoint metric: L∞ distance of clipped endpoints, normalised.
	d := math.Max(math.Abs(p1.iv.Lo-p2.iv.Lo), math.Abs(p1.iv.Hi-p2.iv.Hi)) / w
	if d > 1 {
		d = 1
	}
	return d
}

func (m *Metric) dPredCategorical(p1, p2 *predProfile) float64 {
	inter := 0
	for v := range p1.strSet {
		if _, ok := p2.strSet[v]; ok {
			inter++
		}
	}
	if m.Mode == ModePaperLiteral {
		// "the number of items p1 and p2 have in common" over |access(a)|,
		// averaged over the two sides' cardinalities so the distance stays
		// symmetric when their access snapshots differ.
		return (dirCategorical(inter, p1) + dirCategorical(inter, p2)) / 2
	}
	union := len(p1.strSet) + len(p2.strSet) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// dirCategorical is the one-directional literal categorical d_pred.
func dirCategorical(inter int, p *predProfile) float64 {
	if p.accessCard <= 0 {
		return 0
	}
	return float64(inter) / float64(p.accessCard)
}

// predProfilesEqual reports whether two compiled predicates denote the same
// constraint: same kind, columns and operator, and identical compiled
// geometry (clipped interval, access width and occupied fraction for
// numeric; value set and access cardinality for categorical). dPred uses it
// as the paper-literal identity rule and Kernel as an early exit; the two
// implementations must agree, so any change here needs a mirror in flat.go.
func predProfilesEqual(p1, p2 *predProfile) bool {
	if p1.kind != p2.kind || p1.column != p2.column || p1.column2 != p2.column2 ||
		p1.op != p2.op || p1.frac != p2.frac {
		return false
	}
	switch p1.kind {
	case kindNumeric:
		return p1.iv.Equal(p2.iv) && p1.accessWidth == p2.accessWidth
	case kindString:
		if p1.accessCard != p2.accessCard || len(p1.strSet) != len(p2.strSet) {
			return false
		}
		for v := range p1.strSet {
			if _, ok := p2.strSet[v]; !ok {
				return false
			}
		}
		return true
	default: // kindColCol: kind, columns and op say it all.
		return true
	}
}

func (m *Metric) dPredDifferentColumns(p1, p2 *predProfile) float64 {
	// "the proportion of the joint space of the involved columns occupied
	// by p1 and p2" (Section 5.2).
	occupied := p1.frac * p2.frac
	if m.Mode == ModePaperLiteral {
		return occupied
	}
	return 1 - occupied
}
