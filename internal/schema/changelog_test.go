package schema

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/interval"
)

// changedSince is a test helper returning ChangedSince's column list and
// flag, and the current generation.
func changedSince(t *testing.T, st *Stats, gen uint64) ([]string, bool, uint64) {
	t.Helper()
	cols, all, cur := st.ChangedSince(gen)
	if cur != st.Generation() {
		t.Fatalf("ChangedSince generation %d, Generation %d", cur, st.Generation())
	}
	return cols, all, cur
}

func TestChangeLogColumnCreation(t *testing.T) {
	st := NewStats()
	if cols, all, cur := changedSince(t, st, 0); cols != nil || all || cur != 0 {
		t.Fatalf("empty registry: cols=%v all=%v gen=%d", cols, all, cur)
	}
	st.ObserveNumeric("T.u", 7)
	st.ObserveCategorical("T.c", "x")
	cols, all, cur := changedSince(t, st, 0)
	if all || !reflect.DeepEqual(cols, []string{"T.c", "T.u"}) || cur != 2 {
		t.Fatalf("after creation: cols=%v all=%v gen=%d", cols, all, cur)
	}
	if cols, _, _ := changedSince(t, st, cur); cols != nil {
		t.Fatalf("nothing moved since gen %d, got %v", cur, cols)
	}
}

func TestChangeLogGrowthIsPerColumn(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.u", interval.Closed(0, 10))
	st.SeedNumericContent("T.v", interval.Closed(0, 10))
	_, _, g := changedSince(t, st, 0)
	st.ObserveNumeric("T.v", 25)
	cols, all, cur := changedSince(t, st, g)
	if all || !reflect.DeepEqual(cols, []string{"T.v"}) || cur != g+1 {
		t.Fatalf("growth of T.v: cols=%v all=%v gen=%d (from %d)", cols, all, cur, g)
	}
	// Asking from before both seeds still reports both.
	if cols, _, _ := changedSince(t, st, 0); !reflect.DeepEqual(cols, []string{"T.u", "T.v"}) {
		t.Fatalf("since 0: %v", cols)
	}
}

func TestChangeLogNoOpObservation(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.u", interval.Closed(0, 10))
	st.SeedCategorical("T.c", []string{"a", "b"})
	_, _, g := changedSince(t, st, 0)
	st.ObserveNumeric("T.u", 3)       // inside access(a)
	st.ObserveCategorical("T.c", "a") // already seen
	if cols, all, cur := changedSince(t, st, g); cols != nil || all || cur != g {
		t.Fatalf("no-op observations moved the log: cols=%v all=%v gen=%d (was %d)", cols, all, cur, g)
	}
}

func TestChangeLogNewCategoricalValue(t *testing.T) {
	st := NewStats()
	st.SeedCategorical("T.c", []string{"a"})
	st.SeedNumericContent("T.u", interval.Closed(0, 10))
	_, _, g := changedSince(t, st, 0)
	st.ObserveCategorical("T.c", "b")
	if cols, all, _ := changedSince(t, st, g); all || !reflect.DeepEqual(cols, []string{"T.c"}) {
		t.Fatalf("new value: cols=%v all=%v", cols, all)
	}
}

func TestChangeLogSeeding(t *testing.T) {
	st := NewStats()
	st.SeedNumericSample("T.s", []float64{1, 2})
	_, _, g := changedSince(t, st, 0)
	// Re-seeding a column is a mutation even when the interval is equal:
	// content(a) and access(a) are both replaced.
	st.SeedNumericSample("T.s", []float64{1, 2})
	st.SeedCategorical("T.c", []string{"a"})
	st.SeedNumericContent("T.n", interval.Closed(0, 1))
	cols, all, cur := changedSince(t, st, g)
	if all || !reflect.DeepEqual(cols, []string{"T.c", "T.n", "T.s"}) || cur != g+3 {
		t.Fatalf("seeding: cols=%v all=%v gen=%d (from %d)", cols, all, cur, g)
	}
}

func TestChangeLogRestoreReportsAll(t *testing.T) {
	src := NewStats()
	src.SeedNumericContent("T.u", interval.Closed(0, 10))
	snap := src.Snapshot()

	st := NewStats()
	st.SeedNumericContent("T.v", interval.Closed(0, 10))
	_, _, before := changedSince(t, st, 0)
	st.RestoreSnapshot(snap)
	cols, all, after := changedSince(t, st, before)
	if !all || cols != nil || after != before+1 {
		t.Fatalf("restore: cols=%v all=%v gen=%d (from %d)", cols, all, after, before)
	}
	// From the restore on, the log is per-column again.
	st.ObserveNumeric("T.u", 50)
	if cols, all, _ := changedSince(t, st, after); all || !reflect.DeepEqual(cols, []string{"T.u"}) {
		t.Fatalf("after restore: cols=%v all=%v", cols, all)
	}
	// A reader whose generation predates the restore still sees "all".
	if _, all, _ := changedSince(t, st, before); !all {
		t.Fatal("generation before the restore must report all")
	}
}

// Extraction workers observe while an epoch reads the change log; run under
// -race, this checks the log shares the registry lock.
func TestChangeLogConcurrentReaders(t *testing.T) {
	st := NewStats()
	st.SeedNumericContent("T.u", interval.Closed(0, 1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				st.ObserveNumeric("T.u", float64(g*1000+i))
				st.ObserveCategorical("T.c", string(rune('a'+i%26)))
			}
		}(g)
	}
	var last uint64
	for i := 0; i < 200; i++ {
		_, all, cur := st.ChangedSince(last)
		if all || cur < last {
			t.Fatalf("reader saw all=%v gen %d after %d", all, cur, last)
		}
		last = cur
	}
	wg.Wait()
}
