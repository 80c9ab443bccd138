package qlog

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/extract"
	"repro/internal/memdb"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/skyserver"
)

// memoLog is a log whose exact texts repeat the way bot traffic does: a
// Zipf resample of a mixed bot/human/admin log, followed by a paper-shaped
// log in which every statement appears twice.
func memoLog(t *testing.T) []Record {
	t.Helper()
	mixed := skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: 400, Seed: 7}, skyserver.ClassMix{})
	r := rand.New(rand.NewSource(7))
	z := rand.NewZipf(r, 1.1, 20, uint64(len(mixed)-1))
	var recs []Record
	for i := 0; i < 1500; i++ {
		e := mixed[z.Uint64()]
		recs = append(recs, Record{Seq: len(recs), Time: int64(len(recs)), User: e.User, SQL: e.SQL})
	}
	for _, e := range skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 600, Seed: 8}) {
		for k := 0; k < 2; k++ {
			recs = append(recs, Record{Seq: len(recs), Time: int64(len(recs)), User: e.User, SQL: e.SQL})
		}
	}
	return recs
}

// memoHits reads the process-wide memo hit counter.
func memoHits() float64 {
	return obs.Default().Snapshot()["skyaccess_extract_memo_hits_total"]
}

// requireSameAreas asserts two passes agree record for record on every
// access-area property the miners read, and that a memoised Key is the
// area's own.
func requireSameAreas(t *testing.T, label string, cold, memo []AreaRecord) {
	t.Helper()
	if len(cold) != len(memo) {
		t.Fatalf("%s: %d vs %d area records", label, len(cold), len(memo))
	}
	for i := range cold {
		x, y := cold[i], memo[i]
		if x.Record.Seq != y.Record.Seq {
			t.Fatalf("%s: order differs at %d: seq %d vs %d", label, i, x.Record.Seq, y.Record.Seq)
		}
		for _, ar := range []AreaRecord{x, y} {
			if ar.Key != ar.Area.Key() {
				t.Fatalf("%s: seq %d carries key %q for an area keyed %q", label, ar.Record.Seq, ar.Key, ar.Area.Key())
			}
		}
		a, b := x.Area, y.Area
		if a.Key() != b.Key() || a.Exact != b.Exact || a.Truncated != b.Truncated ||
			a.IsEmpty() != b.IsEmpty() || !reflect.DeepEqual(a.Referenced, b.Referenced) {
			t.Fatalf("%s: area differs at seq %d:\n  %q exact=%v trunc=%v empty=%v ref=%v\n  %q exact=%v trunc=%v empty=%v ref=%v",
				label, x.Record.Seq, a.Key(), a.Exact, a.Truncated, a.IsEmpty(), a.Referenced,
				b.Key(), b.Exact, b.Truncated, b.IsEmpty(), b.Referenced)
		}
	}
}

// seededRegistry returns a stats registry seeded from db, as a server's is.
// Observations only grow access hulls and sets, whose final state does not
// depend on the order in which concurrent workers observe.
func seededRegistry(db *memdb.DB) *schema.Stats {
	st := schema.NewStats()
	skyserver.SeedStats(db, st)
	return st
}

// requireSameRegistry asserts two stats registries hold byte-equal
// snapshots. With ordered observations (one worker) their generation and
// ChangedSince log must match too; several workers interleave observations
// differently run to run, which moves the generation but not the snapshot.
func requireSameRegistry(t *testing.T, label string, cold, memo *schema.Stats, ordered bool) {
	t.Helper()
	a, err := json.Marshal(cold.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(memo.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("%s: registry snapshots differ:\n  cold %.300s\n  memo %.300s", label, a, b)
	}
	if !ordered {
		return
	}
	if cold.Generation() != memo.Generation() {
		t.Fatalf("%s: generation %d (cold) vs %d (memo)", label, cold.Generation(), memo.Generation())
	}
	for _, gen := range []uint64{0, cold.Generation() / 2} {
		cc, ca, _ := cold.ChangedSince(gen)
		mc, ma, _ := memo.ChangedSince(gen)
		if ca != ma || !reflect.DeepEqual(cc, mc) {
			t.Fatalf("%s: ChangedSince(%d) differs: cold %v %v, memo %v %v", label, gen, cc, ca, mc, ma)
		}
	}
}

// The exact-statement memo must be invisible in everything but cost: against
// a NoCache pipeline it gives the same areas, the same semantic counters and
// the same stats registry, even when one memo serves two registries or a
// registry is restored from a snapshot between runs — a memo hit re-observes
// the area through the caller's extractor.
func TestMemoMatchesNoCache(t *testing.T) {
	recs := memoLog(t)
	sch := skyserver.Schema()
	db := skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: 200, Seed: 1})
	half := len(recs) / 2
	for _, workers := range []int{4, 1} {
		ordered := workers == 1
		pipe := func(reg *schema.Stats, cache *extract.TemplateCache) *Pipeline {
			return &Pipeline{
				Extractor: &extract.Extractor{Schema: sch, Stats: reg},
				Workers:   workers,
				NoCache:   cache == nil,
				Cache:     cache,
			}
		}

		t.Run("two-registries", func(t *testing.T) {
			cache := &extract.TemplateCache{}
			hits0 := memoHits()
			for i, label := range []string{"first registry", "second registry"} {
				coldReg, memoReg := seededRegistry(db), seededRegistry(db)
				coldAreas, coldStats := pipe(coldReg, nil).Run(recs)
				memoAreas, memoStats := pipe(memoReg, cache).Run(recs)
				requireSameAreas(t, label, coldAreas, memoAreas)
				requireSameSemantics(t, label, coldStats, memoStats)
				requireSameRegistry(t, label, coldReg, memoReg, ordered)
				if i == 1 && memoStats.FullParses != 0 {
					t.Errorf("%s: %d full parses through a warm memo, want 0", label, memoStats.FullParses)
				}
			}
			if hits := memoHits() - hits0; cache.MemoOff() || hits == 0 {
				t.Errorf("memo off=%v hits=%v on a duplicate-heavy log", cache.MemoOff(), hits)
			}
		})

		t.Run("restore-between-runs", func(t *testing.T) {
			cache := &extract.TemplateCache{}
			run := func(c *extract.TemplateCache) ([]AreaRecord, *Stats, *schema.Stats) {
				first := seededRegistry(db)
				a1, s1 := pipe(first, c).Run(recs[:half])
				second := schema.NewStats()
				second.RestoreSnapshot(first.Snapshot())
				a2, s2 := pipe(second, c).Run(recs)
				s1.Merge(s2)
				return append(a1, a2...), s1, second
			}
			coldAreas, coldStats, coldReg := run(nil)
			memoAreas, memoStats, memoReg := run(cache)
			requireSameAreas(t, "restored", coldAreas, memoAreas)
			requireSameSemantics(t, "restored", coldStats, memoStats)
			requireSameRegistry(t, "restored", coldReg, memoReg, ordered)
		})
	}
}
