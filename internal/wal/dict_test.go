package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/qlog"
)

// TestDictSegmentScan pins where the scanner stops on the dictionary fuzz
// seeds: a ref is resolved only against defs earlier in its segment, and
// anything else ends the verified prefix at that entry.
func TestDictSegmentScan(t *testing.T) {
	dict, offs := seedDictSegment(t)
	cases := []struct {
		name      string
		data      []byte
		records   int
		truncated bool
		goodOff   int
	}{
		{"whole", dict, len(dictRecords), false, len(dict)},
		{"torn ref", dict[:offs[3]+entryHeader+4], 3, true, offs[3]},
		{"ref ahead of its def", append(append([]byte(nil), dict[:offs[1]]...), refEntry(1)...), 1, true, offs[1]},
		{"ref beyond the table", append(append([]byte(nil), dict...), refEntry(1<<40)...), len(dictRecords), true, len(dict)},
	}
	for _, c := range cases {
		var got []qlog.Record
		var fps []uint64
		res, err := scanSegment(bytes.NewReader(c.data), func(rec qlog.Record, fp uint64) error {
			got = append(got, rec)
			fps = append(fps, fp)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != c.records || res.truncated != c.truncated || res.goodOff != int64(c.goodOff) {
			t.Fatalf("%s: %d records, truncated %v at %d; want %d, %v at %d",
				c.name, len(got), res.truncated, res.goodOff, c.records, c.truncated, c.goodOff)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], dictRecords[i].rec) || fps[i] != dictRecords[i].fp {
				t.Fatalf("%s: record %d = %+v fp %d, want %+v fp %d", c.name, i, got[i], fps[i], dictRecords[i].rec, dictRecords[i].fp)
			}
		}
	}
}

// activeSegment returns the path of the last (active) segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("listSegments: %v %v", names, err)
	}
	return filepath.Join(dir, names[len(names)-1])
}

// entryKinds lists the kind byte of every verified entry in a segment file.
func entryKinds(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	er := newEntryReader(f)
	var kinds []byte
	for {
		payload, err := er.next()
		if err != nil {
			return kinds
		}
		kinds = append(kinds, payload[0])
	}
}

func appendRecs(t *testing.T, w *WAL, recs []qlog.Record, fps []uint64) {
	t.Helper()
	for i := range recs {
		if _, err := w.Append(recs[i], fps[i]); err != nil {
			t.Fatalf("Append(%d): %v", recs[i].Seq, err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// A crash that tears the active segment inside its last def entry loses
// that definition. Recovery rebuilds the writer's table from the verified
// prefix only, so appending the same text again must write a fresh def —
// a ref to the lost id would be unreadable.
func TestTornDefinitionRedefined(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []qlog.Record{
		{Seq: 0, Time: 0, User: "u0", SQL: "SELECT 1 FROM PhotoObj"},
		{Seq: 1, Time: 4, User: "u1", SQL: "SELECT 1 FROM PhotoObj"},
		{Seq: 2, Time: 8, User: "u2", SQL: "SELECT 2 FROM SpecObj WHERE z > 0.1"},
	}
	fps := []uint64{11, 11, 22}
	appendRecs(t, w, recs, fps)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := activeSegment(t, dir)
	if got := entryKinds(t, path); !bytes.Equal(got, []byte{kindDef, kindRef, kindDef}) {
		t.Fatalf("entry kinds %v, want def, ref, def", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the last def: past its header and into the text.
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery with torn def: %v", err)
	}
	if off := w2.NextOffset(); off != 2 {
		t.Fatalf("NextOffset after torn def = %d, want 2", off)
	}
	appendRecs(t, w2, recs[2:], fps[2:])
	if got := entryKinds(t, path); !bytes.Equal(got, []byte{kindDef, kindRef, kindDef}) {
		t.Fatalf("entry kinds after re-append %v, want def, ref, def", got)
	}
	if got := collectReplay(t, w2, 0); !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay = %+v, want %+v", got, recs)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// After a clean Close/Open the writer's table is rebuilt from the active
// segment, so a text defined before the reopen is appended as a ref.
func TestReopenKeepsStatementTable(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := qlog.Record{Seq: 0, Time: 0, User: "u0", SQL: "SELECT objid FROM Galaxy WHERE r BETWEEN 14 AND 15"}
	appendRecs(t, w, []qlog.Record{first}, []uint64{5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := activeSegment(t, dir)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	again := qlog.Record{Seq: 1, Time: 4, User: "u1", SQL: first.SQL}
	appendRecs(t, w2, []qlog.Record{again}, []uint64{5})
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	table := stmtTable{stmts: []stmt{{sql: first.SQL, fp: 5}}}
	ref, kind := table.encode(nil, &again, 5)
	if kind != kindRef {
		t.Fatalf("encoder chose kind %d for a defined text", kind)
	}
	if grew := after.Size() - before.Size(); grew != int64(entryHeader+len(ref)) {
		t.Fatalf("segment grew %d bytes, want a %d-byte ref entry (inline would be %d)",
			grew, entryHeader+len(ref), entryHeader+len(encodeRecord(nil, &again, 5)))
	}
	want := []qlog.Record{first, again}
	if got := collectReplay(t, w2, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
}

func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }
func varintLen(v int64) int   { return len(binary.AppendVarint(nil, v)) }

// A run drawn from a few texts costs, per record, the frame header plus the
// kind, seq, time, user and a 1-byte id — with each text's one def
// amortised over the run.
func TestDictSizing(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	defs0, refs0, bytes0 := dictDefs.Value(), dictRefs.Value(), bytesWritten.Value()
	const n, texts = 2000, 10
	var bound int
	for i := 0; i < n; i++ {
		rec := qlog.Record{
			Seq: i, Time: int64(i * 3), User: fmt.Sprintf("user%d", i%7),
			SQL: fmt.Sprintf("SELECT objid, ra, dec FROM PhotoObj WHERE ra BETWEEN %d AND %d", i%texts, i%texts+1),
		}
		fp := uint64(1000 + i%texts)
		if _, err := w.Append(rec, fp); err != nil {
			t.Fatal(err)
		}
		bound += entryHeader + 1 + uvarintLen(uint64(rec.Seq)) + varintLen(rec.Time) +
			uvarintLen(uint64(len(rec.User))) + len(rec.User) + 1
		if i < texts { // the def carries fp and text in place of the id
			bound += uvarintLen(fp) + uvarintLen(uint64(len(rec.SQL))) + len(rec.SQL) - 1
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(activeSegment(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	perRec, limit := float64(st.Size())/n, float64(bound)/n
	t.Logf("%.2f B/record (limit %.2f)", perRec, limit)
	if perRec > limit {
		t.Fatalf("%.2f bytes per record, want at most %.2f", perRec, limit)
	}
	defs, refs, written := dictDefs.Value()-defs0, dictRefs.Value()-refs0, bytesWritten.Value()-bytes0
	if defs != texts || refs != n-texts || written != st.Size() {
		t.Fatalf("counters: %d defs, %d refs, %d bytes written; want %d, %d, %d", defs, refs, written, texts, n-texts, st.Size())
	}
}

// goldenRecords are the records of testdata/v1_sealed.seg, an inline-format
// segment (three record entries, one group entry, footer and trailer)
// written before the statement table existed.
var goldenRecords = []qlog.Record{
	{Seq: 0, Time: 0, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"},
	{Seq: 1, Time: 4, User: "bob", SQL: "not ' terminated"},
	{Seq: 2, Time: 8, User: "alice", SQL: "SELECT TOP 10 * FROM SpecObj"},
	{Seq: 3, Time: 12, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"},
	{Seq: 5, Time: 20, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"},
}

// activeGoldenRecords are the records of testdata/v1_active.seg, an
// unsealed segment the WAL wrote in the inline format before the statement
// table existed.
var activeGoldenRecords = []qlog.Record{
	{Seq: 0, Time: 10, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"},
	{Seq: 1, Time: 11, User: "bot7", SQL: "SELECT TOP 10 * FROM SpecObj", Class: "bot"},
	{Seq: 2, Time: 12, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"},
	{Seq: 3, Time: 13, User: "bob", SQL: "not ' terminated"},
	{Seq: 4, Time: 14, User: "bot7", SQL: "SELECT TOP 10 * FROM SpecObj", Class: "bot"},
	{Seq: 5, Time: 15, User: "carol", SQL: "SELECT objid FROM Galaxy WHERE g < 17", Class: "human"},
}

// A sealed segment scans clean to its last byte; one cut inside its footer
// entry or its trailer scans as truncated, with the verified prefix ending
// before the cut.
func TestSealedSegmentScansClean(t *testing.T) {
	sealed, err := os.ReadFile("testdata/v1_sealed.seg")
	if err != nil {
		t.Fatal(err)
	}
	end := len(sealed) - trailerLen
	footerAt := end - int(binary.LittleEndian.Uint32(sealed[end:]))
	cases := []struct {
		name      string
		n         int // bytes kept
		truncated bool
		goodOff   int
		footer    bool
	}{
		{"sealed", len(sealed), false, len(sealed), true},
		{"cut in footer entry", footerAt + entryHeader + 3, true, footerAt, false},
		{"cut in trailer", len(sealed) - 5, true, end, true},
		{"no trailer", end, true, end, true},
	}
	for _, c := range cases {
		records := 0
		res, err := scanSegment(bytes.NewReader(sealed[:c.n]), func(qlog.Record, uint64) error {
			records++
			return nil
		})
		if err != nil || res.truncated != c.truncated || res.goodOff != int64(c.goodOff) || (res.footer != nil) != c.footer {
			t.Fatalf("%s: err %v, truncated %v at %d, footer %v; want %v at %d, footer %v",
				c.name, err, res.truncated, res.goodOff, res.footer != nil, c.truncated, c.goodOff, c.footer)
		}
		if records != len(goldenRecords) {
			t.Fatalf("%s: %d records, want %d", c.name, records, len(goldenRecords))
		}
	}
}

// Segments written in the inline format still read back whole, and a WAL
// opened on an inline-format active segment keeps appending to it.
func TestOldFormatSegments(t *testing.T) {
	sealed, err := os.ReadFile("testdata/v1_sealed.seg")
	if err != nil {
		t.Fatal(err)
	}
	var got []qlog.Record
	var fps []uint64
	res, err := scanSegment(bytes.NewReader(sealed), func(rec qlog.Record, fp uint64) error {
		got = append(got, rec)
		fps = append(fps, fp)
		return nil
	})
	if err != nil || res.truncated || res.goodOff != int64(len(sealed)) {
		t.Fatalf("scan: err %v, truncated %v, verified prefix %d of %d bytes", err, res.truncated, res.goodOff, len(sealed))
	}
	if !reflect.DeepEqual(got, goldenRecords) || !reflect.DeepEqual(fps, []uint64{7, 0, 9, 7, 7}) {
		t.Fatalf("records %+v fps %v", got, fps)
	}
	wantFooter := footer{span: 5, records: 5, minT: 0, maxT: 20, fps: []uint64{0, 7, 9}}
	if res.footer == nil || !reflect.DeepEqual(*res.footer, wantFooter) {
		t.Fatalf("footer %+v, want %+v", res.footer, wantFooter)
	}
	dir := t.TempDir()
	sealedPath := filepath.Join(dir, segmentFileName(0))
	if err := os.WriteFile(sealedPath, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	ft, ok, err := readFooterTrailer(sealedPath)
	if err != nil || !ok || !reflect.DeepEqual(*ft, wantFooter) {
		t.Fatalf("trailer: %+v ok=%v err=%v", ft, ok, err)
	}

	// An inline-format active segment: Open continues its offsets, and new
	// records land behind the old bytes, which stay as they were.
	active, err := os.ReadFile("testdata/v1_active.seg")
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	path := filepath.Join(dir, segmentFileName(0))
	if err := os.WriteFile(path, active, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if off := w.NextOffset(); off != uint64(len(activeGoldenRecords)) {
		t.Fatalf("NextOffset = %d, want %d", off, len(activeGoldenRecords))
	}
	more := []qlog.Record{
		{Seq: 6, Time: 16, User: "bot7", SQL: "SELECT TOP 10 * FROM SpecObj", Class: "bot"},
		{Seq: 7, Time: 17, User: "bot7", SQL: "SELECT TOP 10 * FROM SpecObj", Class: "bot"},
		{Seq: 8, Time: 18, User: "dave", SQL: "SELECT z FROM SpecObj WHERE z > 2"},
	}
	appendRecs(t, w, more, []uint64{9, 9, 13})
	want := append(append([]qlog.Record(nil), activeGoldenRecords...), more...)
	if got := collectReplay(t, w, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:len(active)], active) {
		t.Fatal("appending rewrote the inline-format prefix")
	}
	kinds := entryKinds(t, path)
	if tail := kinds[len(activeGoldenRecords):]; !bytes.Equal(tail, []byte{kindDef, kindRef, kindDef}) {
		t.Fatalf("appended entry kinds %v, want def, ref, def", tail)
	}
	w, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := collectReplay(t, w, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after reopen = %+v, want %+v", got, want)
	}
}
