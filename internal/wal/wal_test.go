package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/qlog"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
)

// mkRecord builds a deterministic record; fp 0 every 7th marks a
// parse-failed statement.
func mkRecord(i int) (qlog.Record, uint64) {
	fp := uint64(1 + i%5)
	if i%7 == 3 {
		fp = 0
	}
	return qlog.Record{
		Seq:  i,
		Time: int64(i * 4),
		User: fmt.Sprintf("u%d", i%3),
		SQL:  fmt.Sprintf("SELECT %d FROM PhotoObj", i%5),
	}, fp
}

func appendN(t *testing.T, w *WAL, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		rec, fp := mkRecord(i)
		if _, err := w.Append(rec, fp); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func collectReplay(t *testing.T, w *WAL, from uint64) []qlog.Record {
	t.Helper()
	var got []qlog.Record
	if err := w.Replay(from, func(rec qlog.Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	appendN(t, w, 0, n)
	if off := w.NextOffset(); off != n {
		t.Fatalf("NextOffset = %d, want %d", off, n)
	}
	if off := w.DurableOffset(); off != n {
		t.Fatalf("DurableOffset = %d, want %d", off, n)
	}
	got := collectReplay(t, w, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, rec := range got {
		want, _ := mkRecord(i)
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
	// Replay from a mid offset delivers exactly the tail.
	tail := collectReplay(t, w, 150)
	if len(tail) != 50 || tail[0].Seq != 150 {
		t.Fatalf("tail replay: got %d records starting seq %d", len(tail), tail[0].Seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesOffsets(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 120)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if off := w2.NextOffset(); off != 120 {
		t.Fatalf("reopened NextOffset = %d, want 120", off)
	}
	appendN(t, w2, 120, 200)
	got := collectReplay(t, w2, 0)
	if len(got) != 200 {
		t.Fatalf("replayed %d, want 200", len(got))
	}
	for i, rec := range got {
		want, _ := mkRecord(i)
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
	// Small SegmentBytes must have rotated: sealed segments carry footers.
	segs := w2.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected rotation with 2 KiB segments, got %d segments", len(segs))
	}
	for _, s := range segs[:len(segs)-1] {
		if !s.Sealed {
			t.Fatalf("segment %s not sealed", s.Path)
		}
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 50)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: append garbage half-entry to the active
	// segment.
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listSegments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segs[len(segs)-1])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer w2.Close()
	if off := w2.NextOffset(); off != 50 {
		t.Fatalf("NextOffset after torn-tail recovery = %d, want 50", off)
	}
	// The WAL must still accept appends after truncation.
	appendN(t, w2, 50, 60)
	if got := collectReplay(t, w2, 0); len(got) != 60 {
		t.Fatalf("replayed %d, want 60", len(got))
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the middle of the file.
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery after bit flip: %v", err)
	}
	defer w2.Close()
	// The corrupt entry and everything after it is gone; the prefix stays.
	if off := w2.NextOffset(); off >= 10 {
		t.Fatalf("NextOffset = %d after bit flip, want < 10", off)
	}
}

func TestReadWindowIndexSkips(t *testing.T) {
	dir := t.TempDir()
	// Window-rotate every 100 time units: records land in distinct segments
	// by time.
	w, err := Open(dir, Options{SegmentWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 200) // times 0..796, so ~8 segments
	var got []qlog.Record
	st, err := w.ReadWindow(100, 200, nil, func(rec qlog.Record, fp uint64) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Times in [100,200) are records 25..49.
	if len(got) != 25 {
		t.Fatalf("window records = %d, want 25", len(got))
	}
	for i, rec := range got {
		if rec.Seq != 25+i {
			t.Fatalf("window record %d has seq %d", i, rec.Seq)
		}
	}
	// Rotating every 100 time units puts times 100k..100k+96 in segment k
	// of 8, so the window overlaps segment 1 alone: the index must open it
	// and skip the other 7.
	if n := len(w.Segments()); n != 8 {
		t.Fatalf("layout: %d segments, want 8", n)
	}
	if st.SegmentsScanned != 1 || st.SegmentsSkipped != 7 {
		t.Fatalf("index scanned %d and skipped %d segments, want 1 and 7", st.SegmentsScanned, st.SegmentsSkipped)
	}
	all, err := w.ReadWindowScanAll(100, 200, nil, func(qlog.Record, uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if all.SegmentsSkipped != 0 || all.Records != st.Records {
		t.Fatalf("scan-all mismatch: %+v vs %+v", all, st)
	}
}

func TestReadWindowFingerprintFilter(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Records where i%5==2 get fp 3 (except i%7==3 parse-fails).
	appendN(t, w, 0, 200)
	var got int
	_, err = w.ReadWindow(0, 1<<40, []uint64{3}, func(rec qlog.Record, fp uint64) error {
		if fp != 3 {
			t.Fatalf("filter leaked fp %d", fp)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 200; i++ {
		if _, fp := mkRecord(i); fp == 3 {
			want++
		}
	}
	if got != want {
		t.Fatalf("fingerprint filter got %d records, want %d", got, want)
	}
}

func TestCompactionLossless(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 300)

	before := make(map[string]int) // keyed record -> count, fp==0 excluded
	_, err = w.ReadWindow(0, 1<<40, nil, func(rec qlog.Record, fp uint64) error {
		if fp != 0 {
			before[fmt.Sprintf("%d|%d|%s|%s|%d", rec.Seq, rec.Time, rec.User, rec.SQL, fp)]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	w.SetCompactFloor(w.NextOffset())
	st, err := w.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Segments == 0 || st.Deduped == 0 || st.Dropped == 0 {
		t.Fatalf("compaction did nothing: %+v", st)
	}
	if st.BytesOut >= st.BytesIn {
		t.Fatalf("compaction grew the log: %+v", st)
	}

	// Compaction only touches cold (sealed) segments — the active segment
	// keeps its parse-failed records, so compare the fp!=0 population.
	after := make(map[string]int)
	_, err = w.ReadWindow(0, 1<<40, nil, func(rec qlog.Record, fp uint64) error {
		if fp != 0 {
			after[fmt.Sprintf("%d|%d|%s|%s|%d", rec.Seq, rec.Time, rec.User, rec.SQL, fp)]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("compaction lost records: before %d keys, after %d keys", len(before), len(after))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Compacted segments reopen via their footers and still read back whole.
	w2, err := Open(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if off := w2.NextOffset(); off != 300 {
		t.Fatalf("NextOffset after compacted reopen = %d, want 300", off)
	}
	reopened := make(map[string]int)
	_, err = w2.ReadWindow(0, 1<<40, nil, func(rec qlog.Record, fp uint64) error {
		if fp != 0 {
			reopened[fmt.Sprintf("%d|%d|%s|%s|%d", rec.Seq, rec.Time, rec.User, rec.SQL, fp)]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, reopened) {
		t.Fatalf("compacted reopen lost records")
	}
}

// Group coding earns its keep on a duplicate-heavy log even after the
// statement table has collapsed each repeated text to a varint id: 25k
// records drawn with Zipf popularity (s=1.1, v=20) from a 1,000-statement
// mixed bot/human/admin pool, written in 64 KiB segments, must compact to
// at most 95% of the dictionary-coded bytes (84% when the bound was set;
// larger segments hold longer families and save more).
func TestCompactionShrinksDuplicateLog(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 25k-record log")
	}
	pool := skyserver.GenerateMixedLog(skyserver.WorkloadConfig{Queries: 1000, Seed: 1}, skyserver.ClassMix{})
	fps := make([]uint64, len(pool))
	for i, e := range pool {
		fps[i], _ = sqlparser.FingerprintOnly(e.SQL)
	}
	r := rand.New(rand.NewSource(1))
	rank := r.Perm(len(pool))
	z := rand.NewZipf(r, 1.1, 20, uint64(len(pool)-1))

	w, err := Open(t.TempDir(), Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 25000; i++ {
		k := rank[z.Uint64()]
		rec := qlog.Record{Seq: i, Time: int64(i), User: pool[k].User, SQL: pool[k].SQL}
		if _, err := w.Append(rec, fps[k]); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.SetCompactFloor(w.NextOffset())
	st, err := w.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	t.Logf("%d segments: %d -> %d bytes (%.1f%% smaller), %d records folded into groups",
		st.Segments, st.BytesIn, st.BytesOut, 100*(1-float64(st.BytesOut)/float64(st.BytesIn)), st.Deduped)
	if st.Segments == 0 || 100*st.BytesOut > 95*st.BytesIn {
		t.Fatalf("compaction wrote %d of %d bytes, want at most 95%%", st.BytesOut, st.BytesIn)
	}
}

func TestConcurrentAppendSync(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 8192})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const (
		writers = 8
		perW    = 50
	)
	fsyncsBefore := fsyncTotal.Value()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				rec, fp := mkRecord(g*perW + i)
				if _, err := w.Append(rec, fp); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
			if err := w.Sync(); err != nil {
				t.Errorf("Sync: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if got := collectReplay(t, w, 0); len(got) != writers*perW {
		t.Fatalf("replayed %d, want %d", len(got), writers*perW)
	}
	// Far fewer fsyncs than records proves group commit coalesced them.
	if d := fsyncTotal.Value() - fsyncsBefore; d >= int64(writers*perW) {
		t.Fatalf("fsyncs (%d) not coalesced below append count", d)
	}
}

func TestSealedTrailerFastPath(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := listSegments(dir)
	if len(names) < 2 {
		t.Fatalf("want rotation, got %d segments", len(names))
	}
	ft, ok, err := readFooterTrailer(filepath.Join(dir, names[0]))
	if err != nil || !ok {
		t.Fatalf("trailer not readable: ok=%v err=%v", ok, err)
	}
	if ft.span == 0 || len(ft.fps) == 0 {
		t.Fatalf("empty footer: %+v", ft)
	}
}
