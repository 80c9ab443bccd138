package traffic

import (
	"math"
	"sort"
	"strings"
)

// Config configures the classifier; the serving layer treats a nil
// *Config as "traffic mining disabled".
type Config struct {
	// Overrides pins users to a class regardless of behaviour — the
	// operator's allowlist for known crawlers and admin accounts.
	Overrides map[string]string
}

// The bot heuristic of Singh et al. [23] and the bounds on the state kept
// to apply it.
const (
	// sessionGap is the inactivity timeout (logical seconds) that ends a
	// session; gap statistics reset at session boundaries so regularity is
	// a within-session feature ([23]'s 30 minutes).
	sessionGap = 1800
	// minQueries is how many queries of the current session a user must
	// have issued before the bot heuristics may fire.
	minQueries = 16
	// botMaxMeanGap is the largest mean inter-query gap (seconds) the bot
	// heuristic accepts — machines poll fast.
	botMaxMeanGap = 5
	// botMaxGapStddev bounds the gap standard deviation: machine cadence
	// is regular, human bursts are not.
	botMaxGapStddev = 2
	// botMaxDiversity bounds distinct-fingerprints / queries: bots replay
	// a handful of form templates.
	botMaxDiversity = 0.25
	// maxUsers bounds the tracked-user table; users past the bound are
	// classified statelessly (admin statements still detected).
	maxUsers = 1 << 16
	// maxFingerprints bounds the per-user distinct-fingerprint set used for
	// the diversity feature.
	maxFingerprints = 512
)

// userState is the classifier's per-user accumulator. Gap mean/variance use
// Welford's online recurrence over the inter-arrival gaps of the current
// session.
type userState struct {
	queries        int
	sessionQueries int
	lastTime       int64
	gapCount       int
	gapMean        float64
	gapM2          float64
	fps            map[uint64]struct{}
	admin          bool
}

// stddev returns the sample standard deviation of the session's gaps.
func (u *userState) stddev() float64 {
	if u.gapCount < 2 {
		return 0
	}
	return math.Sqrt(u.gapM2 / float64(u.gapCount-1))
}

// Classifier assigns traffic classes online, one record at a time. It is
// NOT internally locked: callers (the serve admission path, the shard
// coordinator's enqueue) already serialise admission, and the class of a
// record must be a pure function of the admission order for the per-class
// reports to be reproducible.
type Classifier struct {
	cfg    Config
	users  map[string]*userState
	counts map[string]int64 // records admitted per class
}

// NewClassifier builds a classifier. cfg is taken by value.
func NewClassifier(cfg Config) *Classifier {
	return &Classifier{
		cfg:    cfg,
		users:  make(map[string]*userState),
		counts: make(map[string]int64),
	}
}

// adminKeywords are the statement-initial keywords that mark administrative
// traffic: DDL, privilege management, batch variables and data mutation —
// none of which the SELECT-mining pipeline extracts areas from.
var adminKeywords = map[string]bool{
	"CREATE": true, "DROP": true, "ALTER": true, "TRUNCATE": true,
	"GRANT": true, "REVOKE": true, "DECLARE": true, "EXEC": true,
	"EXECUTE": true, "INSERT": true, "UPDATE": true, "DELETE": true,
}

// isAdminSQL reports whether the statement's first keyword is
// administrative.
func isAdminSQL(sql string) bool {
	i := 0
	for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r') {
		i++
	}
	j := i
	for j < len(sql) {
		c := sql[j]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			break
		}
		j++
	}
	if j == i {
		return false
	}
	return adminKeywords[strings.ToUpper(sql[i:j])]
}

// Observe folds one admitted record into the per-user state and returns its
// class. fp is the record's statement fingerprint (0 when the statement
// does not lex — it still counts as one more non-diverse query). The
// decision order is: override list, sticky admin detection, bot heuristics,
// default human.
func (c *Classifier) Observe(user string, t int64, fp uint64, sql string) string {
	if cls, ok := c.cfg.Overrides[user]; ok && ValidClass(cls) {
		c.counts[cls]++
		return cls
	}
	st, ok := c.users[user]
	if !ok {
		if len(c.users) >= maxUsers {
			// Past the user bound: stateless fallback. Admin statements are
			// still recognisable without history.
			cls := Human
			if isAdminSQL(sql) {
				cls = Admin
			}
			c.counts[cls]++
			return cls
		}
		st = &userState{fps: make(map[uint64]struct{})}
		c.users[user] = st
	}
	if !st.admin && isAdminSQL(sql) {
		st.admin = true
	}
	if st.queries > 0 {
		gap := float64(t - st.lastTime)
		if gap < 0 {
			gap = 0
		}
		if int64(gap) > sessionGap {
			// New session: regularity is a within-session feature.
			st.sessionQueries = 0
			st.gapCount, st.gapMean, st.gapM2 = 0, 0, 0
		} else {
			st.gapCount++
			d := gap - st.gapMean
			st.gapMean += d / float64(st.gapCount)
			st.gapM2 += d * (gap - st.gapMean)
		}
	}
	st.queries++
	st.sessionQueries++
	st.lastTime = t
	if fp != 0 && len(st.fps) < maxFingerprints {
		st.fps[fp] = struct{}{}
	}
	cls := c.decide(st)
	c.counts[cls]++
	return cls
}

// decide applies the class rules to the current state.
func (c *Classifier) decide(st *userState) string {
	if st.admin {
		return Admin
	}
	if st.sessionQueries >= minQueries && st.gapCount >= minQueries-1 {
		diversity := float64(len(st.fps)) / float64(st.queries)
		if st.gapMean <= botMaxMeanGap &&
			st.stddev() <= botMaxGapStddev &&
			diversity <= botMaxDiversity {
			return Bot
		}
	}
	return Human
}

// FinalClass returns the class the user's full observed history resolves
// to — the per-user verdict that tests score for precision/recall against
// ground truth. Unknown users default to human; overrides win.
func (c *Classifier) FinalClass(user string) string {
	if cls, ok := c.cfg.Overrides[user]; ok && ValidClass(cls) {
		return cls
	}
	st, ok := c.users[user]
	if !ok {
		return Human
	}
	return c.decide(st)
}

// UserClasses returns every tracked user's final class, sorted by user name.
func (c *Classifier) UserClasses() map[string]string {
	out := make(map[string]string, len(c.users))
	for u := range c.users {
		out[u] = c.FinalClass(u)
	}
	return out
}

// Counts returns how many records were admitted per class.
func (c *Classifier) Counts() map[string]int64 {
	out := make(map[string]int64, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

// UserSnapshot is one user's serialised classifier state.
type UserSnapshot struct {
	User           string   `json:"user"`
	Queries        int      `json:"queries"`
	SessionQueries int      `json:"session_queries"`
	LastTime       int64    `json:"last_time"`
	GapCount       int      `json:"gap_count"`
	GapMean        float64  `json:"gap_mean"`
	GapM2          float64  `json:"gap_m2"`
	Fingerprints   []uint64 `json:"fingerprints,omitempty"`
	Admin          bool     `json:"admin,omitempty"`
}

// ClassifierState is the snapshot form of a Classifier (users sorted so the
// serialisation is deterministic).
type ClassifierState struct {
	Users  []UserSnapshot   `json:"users"`
	Counts map[string]int64 `json:"counts"`
}

// ExportState snapshots the classifier.
func (c *Classifier) ExportState() *ClassifierState {
	st := &ClassifierState{Counts: c.Counts()}
	names := make([]string, 0, len(c.users))
	for u := range c.users {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		s := c.users[u]
		us := UserSnapshot{
			User: u, Queries: s.queries, SessionQueries: s.sessionQueries,
			LastTime: s.lastTime, GapCount: s.gapCount,
			GapMean: s.gapMean, GapM2: s.gapM2, Admin: s.admin,
		}
		for fp := range s.fps {
			us.Fingerprints = append(us.Fingerprints, fp)
		}
		sort.Slice(us.Fingerprints, func(i, j int) bool { return us.Fingerprints[i] < us.Fingerprints[j] })
		st.Users = append(st.Users, us)
	}
	return st
}

// RestoreState replaces the classifier's state with a snapshot.
func (c *Classifier) RestoreState(st *ClassifierState) {
	c.users = make(map[string]*userState, len(st.Users))
	c.counts = make(map[string]int64, len(st.Counts))
	for k, v := range st.Counts {
		c.counts[k] = v
	}
	for _, us := range st.Users {
		s := &userState{
			queries: us.Queries, sessionQueries: us.SessionQueries,
			lastTime: us.LastTime, gapCount: us.GapCount,
			gapMean: us.GapMean, gapM2: us.GapM2, admin: us.Admin,
			fps: make(map[uint64]struct{}, len(us.Fingerprints)),
		}
		for _, fp := range us.Fingerprints {
			s.fps[fp] = struct{}{}
		}
		c.users[us.User] = s
	}
}
