// Package aggregate turns DBSCAN clusters of access areas into the
// aggregated access areas reported in Table 1: the minimum bounding
// hyper-rectangle of the member constraints with extreme range bounds
// removed by the 3-standard-deviation rule, plus cardinality, distinct-user
// count, area coverage and object coverage (Section 6.2).
package aggregate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/predicate"
)

// Item is one distinct access area inside a cluster, with its multiplicity
// in the log.
type Item struct {
	Area *extract.AccessArea
	// Weight is the number of raw queries sharing this access area.
	Weight int
	// Users is the set of distinct users who issued such queries.
	Users map[string]struct{}
	// RelKey is the interned extract.RelationSetKey of Area.Relations,
	// computed once when the item is created so the per-epoch partitioning
	// hot path (and the shard router) never re-joins the relation list.
	// Empty means "not yet computed" — consumers fall back to deriving it.
	RelKey string
	// Key is the interned Area.Key(), under the same convention: set by
	// the accumulator that deduplicated the item, derived when empty.
	Key string
}

// AreaKey returns the item's area key, deriving it when not interned.
func (it *Item) AreaKey() string {
	if it.Key != "" {
		return it.Key
	}
	return it.Area.Key()
}

// Options controls summarisation.
type Options struct {
	// SigmaRule is the k of the k-standard-deviation outlier rule applied
	// to range bounds; the paper uses 3. <= 0 disables trimming.
	SigmaRule float64
	// MinColumnSupport is the fraction of members that must constrain a
	// column for it to appear in the aggregated box (default 0.5).
	MinColumnSupport float64
}

func (o Options) sigma() float64 {
	if o.SigmaRule == 0 {
		return 3
	}
	return o.SigmaRule
}

func (o Options) support() float64 {
	if o.MinColumnSupport == 0 {
		return 0.5
	}
	return o.MinColumnSupport
}

// Summary is one aggregated access area (a row of Table 1).
type Summary struct {
	ID int
	// Cardinality is the number of queries in the cluster.
	Cardinality int
	// UserCount is the number of distinct users.
	UserCount int
	// Relations is the union of the members' relation sets.
	Relations []string
	// Box is the aggregated numeric access area (3σ-trimmed MBR).
	Box *interval.Box
	// Categorical holds per-column accessed value sets (sorted).
	Categorical map[string][]string
	// JoinPreds lists column-column predicates shared by most members.
	JoinPreds []string
	// Representatives holds up to three member access areas in
	// intermediate-SQL form, ordered by weight — the "explain the cluster
	// with example queries" presentation improvement the paper's domain
	// experts asked for (Section 6.3).
	Representatives []string
	// AreaCoverage and ObjectCoverage are filled by Coverage.
	AreaCoverage   float64
	ObjectCoverage float64
}

// Expr renders the aggregated access area as a Boolean expression in the
// style of Table 1.
func (s *Summary) Expr() string {
	var parts []string
	for _, col := range sortedKeys(s.Categorical) {
		vals := s.Categorical[col]
		if len(vals) == 1 {
			parts = append(parts, fmt.Sprintf("(%s = '%s')", col, vals[0]))
			continue
		}
		sub := make([]string, len(vals))
		for i, v := range vals {
			sub[i] = fmt.Sprintf("(%s = '%s')", col, v)
		}
		parts = append(parts, "("+strings.Join(sub, " OR ")+")")
	}
	for _, col := range s.Box.Dims() {
		iv := s.Box.Get(col)
		switch {
		case iv.IsEmpty():
			parts = append(parts, fmt.Sprintf("(%s ∈ ∅)", col))
		case math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1):
			// unconstrained; skip
		case math.IsInf(iv.Lo, -1):
			parts = append(parts, fmt.Sprintf("(%s <= %s)", col, fnum(iv.Hi)))
		case math.IsInf(iv.Hi, 1):
			parts = append(parts, fmt.Sprintf("(%s >= %s)", col, fnum(iv.Lo)))
		case iv.Lo == iv.Hi:
			parts = append(parts, fmt.Sprintf("(%s = %s)", col, fnum(iv.Lo)))
		default:
			parts = append(parts, fmt.Sprintf("(%s <= %s <= %s)", fnum(iv.Lo), col, fnum(iv.Hi)))
		}
	}
	parts = append(parts, s.JoinPreds...)
	if len(parts) == 0 {
		return "⊤"
	}
	return strings.Join(parts, " ∧ ")
}

func fnum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e18 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Summarize builds the aggregated access area of one cluster.
func Summarize(id int, items []*Item, opts Options) *Summary {
	s := &Summary{ID: id, Categorical: make(map[string][]string), Box: interval.NewBox()}
	users := make(map[string]struct{})
	relSet := make(map[string]struct{})
	totalWeight := 0
	for _, it := range items {
		w := it.Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += w
		for u := range it.Users {
			users[u] = struct{}{}
		}
		for _, r := range it.Area.Relations {
			relSet[r] = struct{}{}
		}
	}
	s.Cardinality = totalWeight
	s.UserCount = len(users)
	s.Relations = make([]string, 0, len(relSet))
	for r := range relSet {
		s.Relations = append(s.Relations, r)
	}
	sort.Strings(s.Relations)

	s.Box = numericBox(items, totalWeight, opts)
	s.Categorical = categoricalValues(items, totalWeight, opts)
	s.JoinPreds = joinPreds(items, totalWeight, opts)
	s.Representatives = representatives(items, 3)
	return s
}

// representatives picks the n heaviest distinct member areas.
func representatives(items []*Item, n int) []string {
	// Area.Key renders the whole CNF, so fetch each member's key once
	// instead of rendering two per comparison.
	type keyed struct {
		it  *Item
		key string
	}
	sorted := make([]keyed, len(items))
	for i, it := range items {
		sorted[i] = keyed{it, it.AreaKey()}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].it.Weight != sorted[j].it.Weight {
			return sorted[i].it.Weight > sorted[j].it.Weight
		}
		return sorted[i].key < sorted[j].key
	})
	var out []string
	for _, k := range sorted {
		if len(out) >= n {
			break
		}
		out = append(out, k.it.Area.IntermediateSQL())
	}
	return out
}

// colBounds collects, per column, the weighted lower/upper bound samples of
// every member's projection.
type boundSamples struct {
	los, his []weighted // finite samples
	loInf    int        // weight of members unbounded below
	hiInf    int        // weight of members unbounded above
	support  int        // total weight of members constraining this column
}

type weighted struct {
	v float64
	w int
}

func numericBox(items []*Item, totalWeight int, opts Options) *interval.Box {
	byCol := make(map[string]*boundSamples)
	for _, it := range items {
		w := it.Weight
		if w <= 0 {
			w = 1
		}
		for col, set := range it.Area.Bounds() {
			h := set.Hull()
			if h.IsEmpty() {
				continue
			}
			bs, ok := byCol[col]
			if !ok {
				bs = &boundSamples{}
				byCol[col] = bs
			}
			bs.support += w
			if math.IsInf(h.Lo, -1) {
				bs.loInf += w
			} else {
				bs.los = append(bs.los, weighted{h.Lo, w})
			}
			if math.IsInf(h.Hi, 1) {
				bs.hiInf += w
			} else {
				bs.his = append(bs.his, weighted{h.Hi, w})
			}
		}
	}
	box := interval.NewBox()
	minSupport := int(math.Ceil(opts.support() * float64(totalWeight)))
	for col, bs := range byCol {
		if bs.support < minSupport {
			continue
		}
		lo := trimmedExtreme(bs.los, bs.loInf, opts.sigma(), true)
		hi := trimmedExtreme(bs.his, bs.hiInf, opts.sigma(), false)
		box.Set(col, interval.Interval{Lo: lo, Hi: hi})
	}
	return box
}

// trimmedExtreme applies the k-sigma rule to the bound samples and returns
// the surviving extreme (min of lower bounds / max of upper bounds).
// Unbounded members dominate when they outweigh the bounded ones.
func trimmedExtreme(samples []weighted, infWeight int, sigma float64, lower bool) float64 {
	finiteWeight := 0
	for _, s := range samples {
		finiteWeight += s.w
	}
	if infWeight > finiteWeight {
		if lower {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	if len(samples) == 0 {
		if lower {
			return math.Inf(-1)
		}
		return math.Inf(1)
	}
	mean, std := weightedMeanStd(samples)
	best := math.NaN()
	for _, s := range samples {
		if sigma > 0 && std > 0 && math.Abs(s.v-mean) > sigma*std {
			continue // extreme bound, dropped by the 3σ rule
		}
		if math.IsNaN(best) || (lower && s.v < best) || (!lower && s.v > best) {
			best = s.v
		}
	}
	if math.IsNaN(best) {
		// Everything trimmed (degenerate); fall back to untrimmed extreme.
		best = samples[0].v
		for _, s := range samples[1:] {
			if (lower && s.v < best) || (!lower && s.v > best) {
				best = s.v
			}
		}
	}
	return best
}

func weightedMeanStd(samples []weighted) (mean, std float64) {
	total := 0.0
	for _, s := range samples {
		total += float64(s.w)
	}
	if total == 0 {
		return 0, 0
	}
	for _, s := range samples {
		mean += s.v * float64(s.w)
	}
	mean /= total
	var varSum float64
	for _, s := range samples {
		d := s.v - mean
		varSum += d * d * float64(s.w)
	}
	return mean, math.Sqrt(varSum / total)
}

// categoricalValues collects string-equality values per column with
// sufficient support.
func categoricalValues(items []*Item, totalWeight int, opts Options) map[string][]string {
	type colVals struct {
		vals    map[string]struct{}
		support int
	}
	byCol := make(map[string]*colVals)
	for _, it := range items {
		w := it.Weight
		if w <= 0 {
			w = 1
		}
		seen := make(map[string]bool)
		for _, cl := range it.Area.CNF {
			for _, p := range cl {
				if p.Kind != predicate.ColumnConstant || p.Val.Kind != predicate.StringVal {
					continue
				}
				cv, ok := byCol[p.Column]
				if !ok {
					cv = &colVals{vals: make(map[string]struct{})}
					byCol[p.Column] = cv
				}
				cv.vals[p.Val.Str] = struct{}{}
				if !seen[p.Column] {
					cv.support += w
					seen[p.Column] = true
				}
			}
		}
	}
	out := make(map[string][]string)
	minSupport := int(math.Ceil(opts.support() * float64(totalWeight)))
	for col, cv := range byCol {
		if cv.support < minSupport {
			continue
		}
		vals := make([]string, 0, len(cv.vals))
		for v := range cv.vals {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		out[col] = vals
	}
	return out
}

// joinPreds collects column-column predicates shared by enough members.
func joinPreds(items []*Item, totalWeight int, opts Options) []string {
	support := make(map[string]int)
	for _, it := range items {
		w := it.Weight
		if w <= 0 {
			w = 1
		}
		seen := make(map[string]bool)
		for _, cl := range it.Area.CNF {
			for _, p := range cl {
				if p.Kind != predicate.ColumnColumn {
					continue
				}
				key := "(" + p.String() + ")"
				if !seen[key] {
					support[key] += w
					seen[key] = true
				}
			}
		}
	}
	minSupport := int(math.Ceil(opts.support() * float64(totalWeight)))
	var out []string
	for key, w := range support {
		if w >= minSupport {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
