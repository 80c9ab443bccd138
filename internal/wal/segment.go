package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/qlog"
)

// On-disk entry framing, shared by every segment:
//
//	u32 LE  payload length
//	u32 LE  CRC-32C (Castagnoli) of the payload
//	payload [1 byte kind][kind-specific body]
//
// Five entry kinds exist. Three carry one ingested query-log record:
//
//   - inline (kindRecord): seq, time, statement fingerprint (0 when the
//     statement does not lex — the WAL's "parse failed" marker), user,
//     text and an optional class. It defines nothing, so segments written
//     before the statement table existed decode unchanged.
//   - def (kindDef): the inline body, and the (text, fingerprint) pair
//     takes the next id in this segment's statement table (0, 1, 2, ...).
//   - ref (kindRef): seq, time, a varint table id in place of both the
//     text and the fingerprint, user and the optional class.
//
// The statement table is per segment: every ref points at a def earlier in
// the same file, so replay, windowed reads, torn-tail truncation and
// compaction each work on one segment alone. A ref to an id not defined
// yet ends a scan exactly like a failed checksum. The writer keys its
// table on the exact text and bounds it (maxStmtIDs); a text past the
// bound, or a text whose fingerprint differs from the one its id stores,
// is written inline. Readers apply no bound: they define an id for every
// def they verify.
//
// Group entries are produced by compaction: one (user, sql) pair that
// occurred n times, with every occurrence's (seq, time) delta-coded so
// expansion is lossless. Footer entries close a sealed segment with its
// index — record span, time range and the sorted distinct fingerprints —
// followed by a fixed trailer locating the footer, so opening a sealed
// segment reads the index without scanning the data.
const (
	kindRecord = 1
	kindFooter = 2
	kindGroup  = 3
	kindDef    = 4
	kindRef    = 5

	// maxEntryBytes bounds a decoded payload: a corrupt length prefix must
	// not drive a giant allocation. Generous next to the ingest path's own
	// statement limits.
	maxEntryBytes = 32 << 20

	// entryHeader is the framing overhead per entry.
	entryHeader = 8

	// maxStmtIDs bounds the writer's per-segment statement table — the
	// exact-statement memo's bound, so a log of mostly distinct texts holds
	// at most that many table keys per segment.
	maxStmtIDs = 1 << 15
)

// footerMagic trails every sealed segment:
//
//	u32 LE  total footer entry length (header + payload)
//	8 byte  magic
//
// Reading the last trailerLen bytes of a sealed file locates the footer
// entry; its CRC then vouches for the index.
var footerMagic = [8]byte{'W', 'A', 'L', 'F', 'O', 'O', 'T', '1'}

// trailerLen is the size of the trailer that follows a footer entry.
const trailerLen = 4 + 8

// sealBytes is what seals a segment: ft framed as a footer entry, then the
// trailer locating it.
func sealBytes(ft *footer) []byte {
	b := frame(nil, encodeFooter(nil, ft))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(b)))
	return append(b, footerMagic[:]...)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an entry whose frame or checksum does not verify.
// Recovery treats it as the end of the durable prefix; readers treat it as
// a truncated segment.
var ErrCorrupt = errors.New("wal: corrupt entry")

// record is the in-memory form of one WAL record entry.
type record struct {
	rec qlog.Record
	fp  uint64
}

// appendUvarint / appendVarint are binary.AppendUvarint spelled out so the
// encoder reads uniformly.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

// encodeRecord appends one kindRecord payload (no framing) to b. The
// traffic class rides as an optional trailing field, emitted only when
// non-empty, so classless logs stay byte-identical to the original format
// and old segments decode with Class "".
func encodeRecord(b []byte, rec *qlog.Record, fp uint64) []byte {
	return appendInline(append(b, kindRecord), rec, fp)
}

// appendInline appends the body shared by inline and def entries.
func appendInline(b []byte, rec *qlog.Record, fp uint64) []byte {
	b = appendUvarint(b, uint64(rec.Seq))
	b = appendVarint(b, rec.Time)
	b = appendUvarint(b, fp)
	b = appendUvarint(b, uint64(len(rec.User)))
	b = append(b, rec.User...)
	b = appendUvarint(b, uint64(len(rec.SQL)))
	b = append(b, rec.SQL...)
	return appendClass(b, rec.Class)
}

// appendClass appends the optional trailing class field.
func appendClass(b []byte, class string) []byte {
	if class != "" {
		b = appendUvarint(b, uint64(len(class)))
		b = append(b, class...)
	}
	return b
}

// stmt is one statement-table entry: a defined text and the fingerprint
// stored with it.
type stmt struct {
	sql string
	fp  uint64
}

// stmtTable is one segment's statement dictionary. stmts is indexed by id
// in definition order; readers fill it as they verify def entries. ids is
// the writer's exact-text index over it, built lazily on the first encode.
type stmtTable struct {
	stmts []stmt
	ids   map[string]uint32
}

// encode appends rec's payload (no framing) to b against the table and
// returns it with the entry kind chosen: a ref when the text is defined
// with the same fingerprint, a def (taking the next id) when the text is
// new and the table has room, inline otherwise.
func (t *stmtTable) encode(b []byte, rec *qlog.Record, fp uint64) ([]byte, byte) {
	if t.ids == nil {
		t.ids = make(map[string]uint32, len(t.stmts))
		for id, s := range t.stmts {
			t.ids[s.sql] = uint32(id)
		}
	}
	id, ok := t.ids[rec.SQL]
	switch {
	case ok && t.stmts[id].fp == fp:
		b = append(b, kindRef)
		b = appendUvarint(b, uint64(rec.Seq))
		b = appendVarint(b, rec.Time)
		b = appendUvarint(b, uint64(id))
		b = appendUvarint(b, uint64(len(rec.User)))
		b = append(b, rec.User...)
		return appendClass(b, rec.Class), kindRef
	case !ok && len(t.stmts) < maxStmtIDs:
		t.ids[rec.SQL] = uint32(len(t.stmts))
		t.stmts = append(t.stmts, stmt{sql: rec.SQL, fp: fp})
		return appendInline(append(b, kindDef), rec, fp), kindDef
	}
	return encodeRecord(b, rec, fp), kindRecord
}

// group is one compacted duplicate family: the same user issuing the same
// statement text n times under the same traffic class. seqs/times are
// parallel, in original log order.
type group struct {
	fp    uint64
	user  string
	sql   string
	class string
	seqs  []int
	times []int64
}

// encodeGroup appends one kindGroup payload (no framing) to b. Like record
// entries, the class is an optional trailing field emitted only when
// non-empty.
func encodeGroup(b []byte, g *group) []byte {
	b = append(b, kindGroup)
	b = appendUvarint(b, g.fp)
	b = appendUvarint(b, uint64(len(g.user)))
	b = append(b, g.user...)
	b = appendUvarint(b, uint64(len(g.sql)))
	b = append(b, g.sql...)
	b = appendUvarint(b, uint64(len(g.seqs)))
	prevSeq, prevT := int64(0), int64(0)
	for i := range g.seqs {
		b = appendVarint(b, int64(g.seqs[i])-prevSeq)
		b = appendVarint(b, g.times[i]-prevT)
		prevSeq, prevT = int64(g.seqs[i]), g.times[i]
	}
	return appendClass(b, g.class)
}

// footer is a sealed segment's inline index.
type footer struct {
	span    uint64 // logical record span (original count, pre-compaction)
	records uint64 // records physically present (expanded groups)
	minT    int64  // min record time (0 span: both zero)
	maxT    int64
	fps     []uint64 // sorted distinct fingerprints
}

// encodeFooter appends one kindFooter payload (no framing) to b.
func encodeFooter(b []byte, f *footer) []byte {
	b = append(b, kindFooter)
	b = appendUvarint(b, f.span)
	b = appendUvarint(b, f.records)
	b = appendVarint(b, f.minT)
	b = appendVarint(b, f.maxT)
	b = appendUvarint(b, uint64(len(f.fps)))
	prev := uint64(0)
	for _, fp := range f.fps {
		b = appendUvarint(b, fp-prev) // sorted ⇒ deltas fit small varints
		prev = fp
	}
	return b
}

// frameHeader returns the length + CRC header for a payload.
func frameHeader(payload []byte) [entryHeader]byte {
	var hdr [entryHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return hdr
}

// frame wraps a payload with its length + CRC header.
func frame(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// entryReader decodes framed entries from a stream, stopping cleanly at a
// torn tail: io.EOF means a clean end, ErrCorrupt a frame that does not
// verify (short header, short payload, oversized length, CRC mismatch).
type entryReader struct {
	r   *bufio.Reader
	buf []byte
	// off tracks consumed bytes so recovery can truncate at the last good
	// entry boundary.
	off int64
}

func newEntryReader(r io.Reader) *entryReader {
	return &entryReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// next returns the next verified payload (valid until the following call).
// io.EOF at an entry boundary is a clean end; anything else that prevents a
// full verified read reports ErrCorrupt.
func (er *entryReader) next() ([]byte, error) {
	var hdr [entryHeader]byte
	n, err := io.ReadFull(er.r, hdr[:])
	if n == 0 && err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, ErrCorrupt
	}
	ln := binary.LittleEndian.Uint32(hdr[0:4])
	if ln == 0 || ln > maxEntryBytes {
		return nil, ErrCorrupt
	}
	if cap(er.buf) < int(ln) {
		er.buf = make([]byte, ln)
	}
	payload := er.buf[:ln]
	if _, err := io.ReadFull(er.r, payload); err != nil {
		return nil, ErrCorrupt
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrCorrupt
	}
	er.off += int64(entryHeader) + int64(ln)
	return payload, nil
}

// trailer reports whether the rest of the stream is exactly the trailer of
// a footer entry of entryLen bytes.
func (er *entryReader) trailer(entryLen int) bool {
	var tr [trailerLen + 1]byte
	n, _ := io.ReadFull(er.r, tr[:])
	return n == trailerLen && binary.LittleEndian.Uint32(tr[:4]) == uint32(entryLen) &&
		[8]byte(tr[4:]) == footerMagic
}

// uvarint / varint helpers over a payload slice.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, b[n:], nil
}

func readVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrCorrupt
	}
	return v, b[n:], nil
}

func readBytes(b []byte) (string, []byte, error) {
	ln, b, err := readUvarint(b)
	if err != nil || ln > uint64(len(b)) {
		return "", nil, ErrCorrupt
	}
	return string(b[:ln]), b[ln:], nil
}

// readClass reads the optional trailing class field, which must end the
// payload.
func readClass(b []byte) (string, error) {
	if len(b) == 0 {
		return "", nil
	}
	class, b, err := readBytes(b)
	if err == nil && len(b) != 0 {
		err = ErrCorrupt
	}
	return class, err
}

// decodeRecord parses an inline or def payload (kind byte already consumed).
func decodeRecord(b []byte) (record, error) {
	var r record
	seq, b, err := readUvarint(b)
	if err != nil {
		return r, err
	}
	t, b, err := readVarint(b)
	if err != nil {
		return r, err
	}
	fp, b, err := readUvarint(b)
	if err != nil {
		return r, err
	}
	user, b, err := readBytes(b)
	if err != nil {
		return r, err
	}
	sql, b, err := readBytes(b)
	if err != nil {
		return r, err
	}
	class, err := readClass(b)
	if err != nil {
		return r, err
	}
	r.rec = qlog.Record{Seq: int(seq), Time: t, User: user, SQL: sql, Class: class}
	r.fp = fp
	return r, nil
}

// decodeRef parses a kindRef payload (kind byte already consumed) against
// the segment's table so far. An id the table does not hold yet — a ref
// ahead of its def, or past every def — is corrupt: the scan stops there.
func decodeRef(b []byte, t *stmtTable) (record, error) {
	var r record
	seq, b, err := readUvarint(b)
	if err != nil {
		return r, err
	}
	t0, b, err := readVarint(b)
	if err != nil {
		return r, err
	}
	id, b, err := readUvarint(b)
	if err != nil {
		return r, err
	}
	if id >= uint64(len(t.stmts)) {
		return r, ErrCorrupt
	}
	user, b, err := readBytes(b)
	if err != nil {
		return r, err
	}
	class, err := readClass(b)
	if err != nil {
		return r, err
	}
	s := t.stmts[id]
	r.rec = qlog.Record{Seq: int(seq), Time: t0, User: user, SQL: s.sql, Class: class}
	r.fp = s.fp
	return r, nil
}

// decodeGroup parses a kindGroup payload (kind byte already consumed).
func decodeGroup(b []byte) (group, error) {
	var g group
	var err error
	if g.fp, b, err = readUvarint(b); err != nil {
		return g, err
	}
	if g.user, b, err = readBytes(b); err != nil {
		return g, err
	}
	if g.sql, b, err = readBytes(b); err != nil {
		return g, err
	}
	n, b, err := readUvarint(b)
	if err != nil || n == 0 || n > maxEntryBytes {
		return g, ErrCorrupt
	}
	g.seqs = make([]int, 0, n)
	g.times = make([]int64, 0, n)
	prevSeq, prevT := int64(0), int64(0)
	for i := uint64(0); i < n; i++ {
		var dSeq, dT int64
		if dSeq, b, err = readVarint(b); err != nil {
			return g, err
		}
		if dT, b, err = readVarint(b); err != nil {
			return g, err
		}
		prevSeq += dSeq
		prevT += dT
		g.seqs = append(g.seqs, int(prevSeq))
		g.times = append(g.times, prevT)
	}
	g.class, err = readClass(b)
	return g, err
}

// decodeFooter parses a kindFooter payload (kind byte already consumed).
func decodeFooter(b []byte) (footer, error) {
	var f footer
	var err error
	if f.span, b, err = readUvarint(b); err != nil {
		return f, err
	}
	if f.records, b, err = readUvarint(b); err != nil {
		return f, err
	}
	if f.minT, b, err = readVarint(b); err != nil {
		return f, err
	}
	if f.maxT, b, err = readVarint(b); err != nil {
		return f, err
	}
	n, b, err := readUvarint(b)
	if err != nil || n > maxEntryBytes/8 {
		return f, ErrCorrupt
	}
	f.fps = make([]uint64, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var d uint64
		if d, b, err = readUvarint(b); err != nil {
			return f, err
		}
		prev += d
		f.fps = append(f.fps, prev)
	}
	if len(b) != 0 {
		return f, ErrCorrupt
	}
	if !sort.SliceIsSorted(f.fps, func(i, j int) bool { return f.fps[i] < f.fps[j] }) {
		return f, ErrCorrupt
	}
	return f, nil
}

// scanResult is what a full segment scan learns.
type scanResult struct {
	span uint64 // logical records (groups expanded; records an earlier
	// build's compaction dropped are NOT recoverable from a scan, so for
	// compacted segments the footer's span is authoritative)
	records   uint64
	minT      int64
	maxT      int64
	fps       map[uint64]struct{}
	footer    *footer
	table     stmtTable // statements defined in the verified prefix
	goodOff   int64     // file offset just past the last verified entry (or the trailer)
	truncated bool      // hit a torn/corrupt tail before EOF or the trailer
}

// scanSegment walks every entry of one segment stream, invoking onRecord
// for each logical record (group entries are expanded in stored order).
// A torn or corrupt tail ends the scan without error — the result reports
// truncated=true and where the verified prefix ends. A footer ends the
// segment: the scan is clean, with goodOff at the end of the stream, only
// when exactly the footer's trailer follows it. onRecord may be nil.
func scanSegment(r io.Reader, onRecord func(rec qlog.Record, fp uint64) error) (*scanResult, error) {
	er := newEntryReader(r)
	res := &scanResult{fps: make(map[uint64]struct{})}
	see := func(t int64, fp uint64) {
		if res.records == 0 {
			res.minT, res.maxT = t, t
		} else if t < res.minT {
			res.minT = t
		} else if t > res.maxT {
			res.maxT = t
		}
		res.records++
		res.span++
		res.fps[fp] = struct{}{}
	}
	for {
		payload, err := er.next()
		if err == io.EOF {
			res.goodOff = er.off
			return res, nil
		}
		if err != nil {
			res.goodOff = er.off
			res.truncated = true
			return res, nil
		}
		var derr error
		switch payload[0] {
		case kindRecord, kindDef, kindRef:
			var rec record
			if payload[0] == kindRef {
				rec, derr = decodeRef(payload[1:], &res.table)
			} else {
				rec, derr = decodeRecord(payload[1:])
			}
			if derr != nil {
				break
			}
			if payload[0] == kindDef {
				res.table.stmts = append(res.table.stmts, stmt{sql: rec.rec.SQL, fp: rec.fp})
			}
			see(rec.rec.Time, rec.fp)
			if onRecord != nil {
				if cerr := onRecord(rec.rec, rec.fp); cerr != nil {
					return res, cerr
				}
			}
		case kindGroup:
			var g group
			if g, derr = decodeGroup(payload[1:]); derr != nil {
				break
			}
			for i := range g.seqs {
				see(g.times[i], g.fp)
				if onRecord != nil {
					rec := qlog.Record{Seq: g.seqs[i], Time: g.times[i], User: g.user, SQL: g.sql, Class: g.class}
					if cerr := onRecord(rec, g.fp); cerr != nil {
						return res, cerr
					}
				}
			}
		case kindFooter:
			var f footer
			if f, derr = decodeFooter(payload[1:]); derr == nil {
				res.footer = &f
				res.goodOff = er.off
				if er.trailer(entryHeader + len(payload)) {
					res.goodOff += trailerLen
				} else {
					res.truncated = true
				}
				return res, nil
			}
		default:
			// Unknown kind: a future format or corruption that happened to
			// checksum.
			derr = ErrCorrupt
		}
		if derr != nil {
			// Stop before the entry that does not decode, keeping the
			// verified prefix.
			res.goodOff = er.off - int64(entryHeader) - int64(len(payload))
			res.truncated = true
			return res, nil
		}
	}
}

// segmentFileName renders the canonical segment name for a base offset.
func segmentFileName(base uint64) string {
	return fmt.Sprintf("wal-%016x.seg", base)
}

// parseSegmentName extracts the base offset from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	var base uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.seg", &base); err != nil {
		return 0, false
	}
	return base, len(name) == len("wal-0123456789abcdef.seg")
}
