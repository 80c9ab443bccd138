package wal

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/qlog"
)

// seal appends a footer entry and the trailer locating it.
func seal(buf *bytes.Buffer, ft *footer) {
	buf.Write(sealBytes(ft))
}

// seedSegment builds a small well-formed segment image in the inline
// format: a few record entries, one group entry, a footer + trailer.
func seedSegment() []byte {
	var buf bytes.Buffer
	recs := []qlog.Record{
		{Seq: 0, Time: 0, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"},
		{Seq: 1, Time: 4, User: "bob", SQL: "not ' terminated"},
		{Seq: 2, Time: 8, User: "alice", SQL: "SELECT TOP 10 * FROM SpecObj"},
	}
	fps := []uint64{7, 0, 9}
	for i := range recs {
		buf.Write(frame(nil, encodeRecord(nil, &recs[i], fps[i])))
	}
	g := group{fp: 7, user: "alice", sql: "SELECT ra, dec FROM PhotoObj WHERE ra > 180",
		seqs: []int{3, 5}, times: []int64{12, 20}}
	buf.Write(frame(nil, encodeGroup(nil, &g)))
	seal(&buf, &footer{span: 5, records: 5, minT: 0, maxT: 20, fps: []uint64{0, 7, 9}})
	return buf.Bytes()
}

// dictRecords are written through the statement-table encoder by
// seedDictSegment: two defs, refs to both, and a repeat of text 0 under a
// different fingerprint, which must go inline.
var dictRecords = []struct {
	rec  qlog.Record
	fp   uint64
	kind byte
}{
	{qlog.Record{Seq: 0, Time: 0, User: "alice", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"}, 7, kindDef},
	{qlog.Record{Seq: 1, Time: 4, User: "bot", SQL: "SELECT TOP 10 * FROM SpecObj", Class: "bot"}, 9, kindDef},
	{qlog.Record{Seq: 2, Time: 8, User: "bot", SQL: "SELECT TOP 10 * FROM SpecObj", Class: "bot"}, 9, kindRef},
	{qlog.Record{Seq: 3, Time: 12, User: "carol", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"}, 7, kindRef},
	{qlog.Record{Seq: 4, Time: 16, User: "dave", SQL: "SELECT ra, dec FROM PhotoObj WHERE ra > 180"}, 8, kindRecord},
}

// seedDictSegment builds an active-segment image of dictRecords, returning
// it with the file offset at which each entry starts.
func seedDictSegment(t testing.TB) ([]byte, []int) {
	var buf bytes.Buffer
	var table stmtTable
	var offs []int
	for _, d := range dictRecords {
		payload, kind := table.encode(nil, &d.rec, d.fp)
		if kind != d.kind {
			t.Fatalf("record %d encoded as kind %d, want %d", d.rec.Seq, kind, d.kind)
		}
		offs = append(offs, buf.Len())
		buf.Write(frame(nil, payload))
	}
	return buf.Bytes(), offs
}

// refEntry frames a ref payload for table id id.
func refEntry(id uint64) []byte {
	b := []byte{kindRef}
	b = appendUvarint(b, 9)  // seq
	b = appendVarint(b, 36)  // time
	b = appendUvarint(b, id) // table id
	b = appendUvarint(b, 3)
	b = append(b, "eve"...)
	return frame(nil, b)
}

// FuzzSegmentDecode drives the segment scanner over arbitrary bytes. The
// codec's contract: never panic, never allocate unboundedly, and treat
// anything that fails the CRC — or refers to a statement id its segment has
// not defined yet — as a clean truncation point. Whatever the scanner
// accepts must re-encode through the statement-table encoder to entries the
// scanner accepts again, yielding the same records (decode∘encode is
// identity on the verified prefix).
func FuzzSegmentDecode(f *testing.F) {
	whole := seedSegment()
	f.Add(whole)
	f.Add(whole[:len(whole)-5])     // torn trailer
	f.Add(whole[:entryHeader+3])    // torn first entry
	f.Add([]byte{})                 // empty segment
	f.Add([]byte{0xff, 0xff, 0xff}) // short header
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/3] ^= 0x20 // CRC must catch this
	f.Add(flipped)
	big := append([]byte(nil), whole...)
	big[0], big[1], big[2], big[3] = 0xff, 0xff, 0xff, 0x7f // huge length prefix
	f.Add(big)

	dict, offs := seedDictSegment(f)
	f.Add(dict)                                                           // defs, refs, an inline repeat
	f.Add(dict[:offs[3]+entryHeader+4])                                   // torn ref
	f.Add(append(append([]byte(nil), dict[:offs[1]]...), refEntry(1)...)) // ref ahead of its def
	f.Add(append(append([]byte(nil), dict...), refEntry(1<<40)...))       // ref beyond the table
	var sealed bytes.Buffer
	sealed.Write(dict)
	seal(&sealed, &footer{span: 5, records: 5, minT: 0, maxT: 16, fps: []uint64{7, 8, 9}})
	f.Add(sealed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []qlog.Record
		var fps []uint64
		res, err := scanSegment(bytes.NewReader(data), func(rec qlog.Record, fp uint64) error {
			recs = append(recs, rec)
			fps = append(fps, fp)
			return nil
		})
		if err != nil {
			t.Fatalf("scanSegment returned error for callback-less failure: %v", err)
		}
		if res.goodOff > int64(len(data)) {
			t.Fatalf("goodOff %d beyond input length %d", res.goodOff, len(data))
		}
		if res.records != uint64(len(recs)) {
			t.Fatalf("records %d != delivered %d", res.records, len(recs))
		}
		// Round-trip: re-encode every delivered record through the
		// statement-table encoder and scan again — the verified prefix must
		// be stable under decode∘encode.
		var out bytes.Buffer
		var table stmtTable
		for i := range recs {
			payload, _ := table.encode(nil, &recs[i], fps[i])
			out.Write(frame(nil, payload))
		}
		var recs2 []qlog.Record
		var fps2 []uint64
		res2, err := scanSegment(bytes.NewReader(out.Bytes()), func(rec qlog.Record, fp uint64) error {
			recs2 = append(recs2, rec)
			fps2 = append(fps2, fp)
			return nil
		})
		if err != nil {
			t.Fatalf("re-scan: %v", err)
		}
		if res2.truncated || res2.records != uint64(len(recs)) {
			t.Fatalf("re-encoded prefix unstable: %+v vs %d records", res2, len(recs))
		}
		if !reflect.DeepEqual(recs, recs2) || !reflect.DeepEqual(fps, fps2) {
			t.Fatalf("decode∘encode changed the records")
		}
	})
}
