package qlog

import (
	"sort"
	"strings"

	"repro/internal/sqlparser"
)

// Session groups the consecutive queries of one user separated by gaps of
// at most the configured timeout — the "Sessions" data structure of Singh
// et al. [23], whose five-year SkyServer traffic analysis the paper builds
// on. Session statistics also feed the test-vs-final query differentiation
// the paper's astronomer asked for (Section 6.3, future work; see
// ClassifyIntent).
type Session struct {
	User    string
	Start   int64
	End     int64
	Records []Record
}

// Duration returns the session length in logical seconds.
func (s *Session) Duration() int64 { return s.End - s.Start }

// Sessionize splits records into per-user sessions using gapSeconds as the
// inactivity timeout ([23] used 30 minutes for web sessions). Records need
// not be sorted; output sessions are ordered by start time, queries within
// a session by time. A non-positive gap is clamped to zero, meaning any
// positive inter-query gap starts a new session while identical timestamps
// stay together — the only consistent reading of "no tolerated gap".
func Sessionize(recs []Record, gapSeconds int64) []*Session {
	if len(recs) == 0 {
		return nil
	}
	if gapSeconds < 0 {
		gapSeconds = 0
	}
	byUser := make(map[string][]Record)
	for _, r := range recs {
		byUser[r.User] = append(byUser[r.User], r)
	}
	var out []*Session
	for user, urecs := range byUser {
		if len(urecs) == 0 {
			// Guard the final flush: a session is only ever emitted with at
			// least one record, so downstream Duration() callers never
			// sees an empty session.
			continue
		}
		sort.Slice(urecs, func(i, j int) bool { return urecs[i].Time < urecs[j].Time })
		var cur *Session
		for _, r := range urecs {
			if cur == nil || r.Time-cur.End > gapSeconds {
				cur = &Session{User: user, Start: r.Time, End: r.Time}
				out = append(out, cur)
			}
			cur.Records = append(cur.Records, r)
			cur.End = r.Time
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].User < out[j].User
	})
	return out
}

// Skeleton reduces a statement to its template: constants are replaced by
// placeholders, whitespace and keyword case are normalised. Two queries
// issued by a bot from the same form string share a skeleton — the
// "Templates" of [23]. It delegates to sqlparser.Skeleton, which shares one
// token-normalisation pass with sqlparser.Fingerprint, so the session
// templates and the extraction cache's fingerprint classes cannot drift:
// equal fingerprints imply equal skeletons.
func Skeleton(sql string) string {
	sk, err := sqlparser.Skeleton(sql)
	if err != nil {
		// Unlexable statements are their own skeleton.
		return strings.Join(strings.Fields(sql), " ")
	}
	return sk
}

// Intent is the exploratory-vs-final classification the paper leaves as
// future work in Section 6.3 ("there might be 'test queries' ... and
// 'final queries'").
type Intent int

const (
	// TestQuery marks exploratory probes: tiny TOP/LIMIT caps, SELECT *
	// with no or trivial constraints, or early-session repeats.
	TestQuery Intent = iota
	// FinalQuery marks deliberate retrievals: specific projections with
	// substantive constraints and no tiny row cap.
	FinalQuery
)

func (i Intent) String() string {
	if i == TestQuery {
		return "test"
	}
	return "final"
}

// ClassifyIntent applies the heuristic: a query is exploratory when it caps
// output at a handful of rows, or projects * without meaningful
// constraints. Everything else counts as final. The heuristic is
// deliberately simple — the paper only sketches the distinction — but it is
// enough to separate "SELECT TOP 10 *" probes from shaped retrievals.
func ClassifyIntent(sel *sqlparser.SelectStatement) Intent {
	capN := -1.0
	if sel.Top != nil {
		capN = *sel.Top
	}
	if sel.Limit != nil {
		capN = *sel.Limit
	}
	if capN >= 0 && capN <= 100 {
		return TestQuery
	}
	starOnly := len(sel.Select) == 1 && sel.Select[0].Star
	preds := countPredicates(sel.Where)
	if starOnly && preds <= 1 {
		return TestQuery
	}
	if preds == 0 && sel.Where == nil && len(sel.GroupBy) == 0 {
		return TestQuery
	}
	return FinalQuery
}

func countPredicates(e sqlparser.Expr) int {
	switch x := e.(type) {
	case nil:
		return 0
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			return countPredicates(x.L) + countPredicates(x.R)
		default:
			return 1
		}
	case *sqlparser.UnaryExpr:
		return countPredicates(x.X)
	case *sqlparser.BetweenExpr, *sqlparser.InListExpr, *sqlparser.InSubqueryExpr,
		*sqlparser.ExistsExpr, *sqlparser.QuantifiedExpr, *sqlparser.LikeExpr,
		*sqlparser.IsNullExpr:
		return 1
	default:
		return 0
	}
}
