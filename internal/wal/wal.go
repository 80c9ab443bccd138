// Package wal is a durable, segmented write-ahead log for ingested
// query-log records. Entries are length-prefixed and CRC-32C checksummed
// and records pool in a mutex-staged buffer drained by a single writer
// goroutine: plain appends wake the writer only when staging reaches the
// batch target, sync barriers wake it immediately, and one fsync makes
// every staged record durable (group commit) — the ingest hot path pays a
// mutex-guarded stage while encoding and durability are amortised across
// every record in flight. The writer encodes each record against its
// segment's statement table, so a text repeated within a segment costs a
// varint id instead of the text. Segments rotate by size and by
// record-time window, and each sealed segment carries an inline index —
// record span, time range, and the distinct statement fingerprints it
// contains — so re-mining a time window or a template family opens only
// the segments that can match. Cold segments (those wholly covered by a
// snapshot) are compacted in place: duplicate statements are collapsed to
// delta-coded groups that expand losslessly on read, and every record
// survives.
//
// The durability contract the serving layer builds on: a record is
// acknowledged to a client only after Sync returns for an offset past it,
// and recovery replays exactly the verified prefix of the log — a torn
// tail (crash mid-write) is truncated at the last entry whose checksum
// verifies, which is by construction an unacknowledged record.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/qlog"
)

// Options tunes a WAL. The zero value is serviceable.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB).
	SegmentBytes int64
	// SegmentWindow rotates the active segment once the record-time span it
	// covers reaches this many time units (the unit is whatever Record.Time
	// carries — logical seconds for the synthetic workload). 0 disables
	// time rotation.
	SegmentWindow int64
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	return o
}

// bufferedAppends bounds the staging buffer between Append and the writer.
// A full buffer blocks Append — honest backpressure when the disk cannot
// keep up.
const bufferedAppends = 1024

// walBatchTarget is the staging depth at which plain appends wake the
// writer even without a sync barrier. Below it records pool in staging —
// they are not owed to disk until someone Syncs, and waking the writer per
// record costs a scheduler round-trip per record on a loaded single core.
const walBatchTarget = 256

// SegmentInfo describes one segment for metrics and tests.
type SegmentInfo struct {
	Path      string
	Base      uint64 // offset of the segment's first record
	Span      uint64 // logical records covered (original count, even after compaction)
	Records   uint64 // records physically present
	MinTime   int64
	MaxTime   int64
	Sealed    bool
	Compacted bool
	Fprints   int // distinct statement fingerprints
}

// WindowStats reports what a ReadWindow call touched — the measure of the
// segment index's skip win.
type WindowStats struct {
	SegmentsScanned int
	SegmentsSkipped int
	Records         int // records delivered to fn
}

// segMeta is the in-memory index entry for one segment.
type segMeta struct {
	path      string
	base      uint64
	span      uint64
	records   uint64
	minT      int64
	maxT      int64
	fps       map[uint64]struct{}
	sealed    bool
	compacted bool
}

func (m *segMeta) end() uint64 { return m.base + m.span }

func (m *segMeta) info() SegmentInfo {
	return SegmentInfo{
		Path: m.path, Base: m.base, Span: m.span, Records: m.records,
		MinTime: m.minT, MaxTime: m.maxT,
		Sealed: m.sealed, Compacted: m.compacted, Fprints: len(m.fps),
	}
}

// overlaps reports whether the segment can contain a record in [from, to)
// by time, and — when fps is non-empty — any of the given fingerprints.
func (m *segMeta) overlaps(from, to int64, fps []uint64) bool {
	if m.records == 0 {
		return false
	}
	if m.maxT < from || m.minT >= to {
		return false
	}
	if len(fps) == 0 {
		return true
	}
	for _, fp := range fps {
		if _, ok := m.fps[fp]; ok {
			return true
		}
	}
	return false
}

// walOp is one unit of work for the writer goroutine: either a record to
// encode and append, or a sync barrier to acknowledge once everything
// before it is durable. Ops travel through a mutex-staged slice the writer
// swaps out wholesale — cheaper per record than a channel send, and the
// swap forms the group-commit batch for free.
type walOp struct {
	rec qlog.Record // record ops
	off uint64      // record offset (record ops)
	fp  uint64      // statement fingerprint (record ops)
	// sync is the barrier's reply channel; nil for a record op.
	sync chan error
	// target is the durable frontier the barrier waits for. A barrier whose
	// target an earlier group commit already covered is acknowledged without
	// another fsync — the free ride that keeps concurrent committers from
	// each paying a serial fsync.
	target uint64
}

// ErrClosed reports an operation on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// WAL is the log. Open one per mining node; Append/Sync are safe for
// concurrent use.
type WAL struct {
	dir string
	opt Options

	// mu serialises Append's offset assignment so staging order equals
	// offset order, and guards closed/next/staged/kick. workCond wakes the
	// writer when kick is set (a sync barrier arrived, staging crossed the
	// batch target, or close); spaceCond wakes producers blocked on a full
	// staging buffer. Plain appends below the target do NOT wake the writer:
	// letting them pool until a barrier or a full batch is what turns group
	// commit from "whatever trickled in" into real batches, and keeps the
	// single-core scheduler out of the per-record path.
	mu        sync.Mutex
	next      uint64
	closed    bool
	kick      bool
	staged    []walOp
	workCond  *sync.Cond
	spaceCond *sync.Cond

	// segMu guards the segment index (sealed list + active meta), which the
	// writer mutates and readers snapshot.
	segMu  sync.Mutex
	sealed []*segMeta
	active *segMeta

	// durable is the offset frontier known fsynced: every record with
	// offset < durable survives a crash.
	durable atomic.Uint64
	// compactFloor is the offset below which segments are cold: wholly
	// covered by a persisted snapshot, so compaction may rewrite them.
	compactFloor atomic.Uint64

	// failed latches the first write error; Sync surfaces it forever after.
	failed atomic.Pointer[error]

	done chan struct{}

	// writer-owned state (no locks: only the writer goroutine touches it).
	wf *os.File
	// wbuf batches entry writes into one syscall per group commit; fsync
	// flushes it first, so the on-disk file always holds the durable prefix
	// plus whole flushed entries (readers of the active segment see acked
	// records only).
	wbuf     *bufio.Writer
	wsize    int64
	wpending []chan error // sync barriers awaiting the next fsync
	whighOff uint64       // one past the highest offset written (not yet necessarily synced)
	// wtable is the active segment's statement table; rotate resets it and
	// recover rebuilds it from the active segment's verified prefix.
	wtable stmtTable
	wenc   []byte // encode buffer, reused across records
	whdr   [entryHeader]byte
}

// Open recovers (or creates) a WAL in dir. The last segment on disk becomes
// the active one after torn-tail truncation; earlier segments load their
// inline index (or are rescanned when the footer is missing).
func Open(dir string, opt Options) (*WAL, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:  dir,
		opt:  opt,
		done: make(chan struct{}),
	}
	w.workCond = sync.NewCond(&w.mu)
	w.spaceCond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		return nil, err
	}
	go w.writer()
	return w, nil
}

// recover builds the segment index from disk and positions the active
// segment for appending.
func (w *WAL) recover() error {
	names, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		path := filepath.Join(w.dir, name)
		base, _ := parseSegmentName(name)
		last := i == len(names)-1
		meta, truncateAt, table, err := loadSegment(path, base, last)
		if err != nil {
			return err
		}
		if last && !meta.sealed {
			// Torn tail: cut the file back to its verified prefix so the
			// append point is a clean entry boundary.
			if truncateAt >= 0 {
				if err := os.Truncate(path, truncateAt); err != nil {
					return fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
				}
				replayTruncated.Inc()
			}
			w.active = meta
			w.wtable = table
		} else {
			meta.sealed = true
			w.sealed = append(w.sealed, meta)
		}
	}
	if w.active == nil {
		base := uint64(0)
		if n := len(w.sealed); n > 0 {
			base = w.sealed[n-1].end()
		}
		meta, err := w.createSegment(base)
		if err != nil {
			return err
		}
		w.active = meta
	}
	w.next = w.active.end()
	w.durable.Store(w.next)
	// Open the active file for appending.
	f, err := os.OpenFile(w.active.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w.wf, w.wsize, w.whighOff = f, st.Size(), w.next
	w.wbuf = bufio.NewWriterSize(f, 64<<10)
	return nil
}

// loadSegment reads one segment's index. Sealed segments (footer present)
// load from the trailer without a data scan. For the candidate active
// segment (last on disk), a full verifying scan builds the meta, reports
// where to truncate a torn tail (-1 = no truncation needed) and returns the
// statement table its verified prefix defines — a def lost to the torn
// tail is not in it, so its text is defined afresh on the next append.
func loadSegment(path string, base uint64, last bool) (*segMeta, int64, stmtTable, error) {
	if !last {
		if f, ok, err := readFooterTrailer(path); err != nil {
			return nil, -1, stmtTable{}, err
		} else if ok {
			return footerMeta(path, base, f), -1, stmtTable{}, nil
		}
	}
	rf, err := os.Open(path)
	if err != nil {
		return nil, -1, stmtTable{}, err
	}
	defer rf.Close()
	res, err := scanSegment(rf, nil)
	if err != nil {
		return nil, -1, stmtTable{}, err
	}
	meta := &segMeta{
		path: path, base: base,
		span: res.span, records: res.records,
		minT: res.minT, maxT: res.maxT, fps: res.fps,
	}
	if res.footer != nil {
		// A sealed segment scanned the long way (e.g. trailer missing after
		// an interrupted seal): the footer is authoritative for the span,
		// which a scan cannot reconstruct once an earlier build's compaction
		// dropped records.
		meta.span = res.footer.span
		meta.sealed = true
		return meta, -1, stmtTable{}, nil
	}
	if res.truncated {
		return meta, res.goodOff, res.table, nil
	}
	return meta, -1, res.table, nil
}

// footerMeta converts a decoded footer into a segment meta.
func footerMeta(path string, base uint64, f *footer) *segMeta {
	fps := make(map[uint64]struct{}, len(f.fps))
	for _, fp := range f.fps {
		fps[fp] = struct{}{}
	}
	return &segMeta{
		path: path, base: base,
		span: f.span, records: f.records,
		minT: f.minT, maxT: f.maxT, fps: fps,
		sealed: true, compacted: f.records < f.span,
	}
}

// readFooterTrailer reads a sealed segment's index via the fixed trailer.
// ok=false means no (valid) trailer — the caller falls back to a scan.
func readFooterTrailer(path string) (*footer, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	if st.Size() < trailerLen {
		return nil, false, nil
	}
	var tr [trailerLen]byte
	if _, err := f.ReadAt(tr[:], st.Size()-trailerLen); err != nil {
		return nil, false, nil
	}
	if [8]byte(tr[4:]) != footerMagic {
		return nil, false, nil
	}
	entryLen := int64(uint32(tr[0]) | uint32(tr[1])<<8 | uint32(tr[2])<<16 | uint32(tr[3])<<24)
	start := st.Size() - trailerLen - entryLen
	if entryLen < entryHeader || start < 0 {
		return nil, false, nil
	}
	sec := newEntryReader(io.NewSectionReader(f, start, entryLen))
	payload, err := sec.next()
	if err != nil || len(payload) == 0 || payload[0] != kindFooter {
		return nil, false, nil
	}
	ft, err := decodeFooter(payload[1:])
	if err != nil {
		return nil, false, nil
	}
	return &ft, true, nil
}

// listSegments returns segment file names in base-offset order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if _, ok := parseSegmentName(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // fixed-width hex ⇒ lexicographic == numeric
	return names, nil
}

// createSegment makes an empty segment file (fsynced, and the directory
// fsynced so the name survives a crash) and returns its meta.
func (w *WAL) createSegment(base uint64) (*segMeta, error) {
	path := filepath.Join(w.dir, segmentFileName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := syncDir(w.dir); err != nil {
		return nil, err
	}
	return &segMeta{path: path, base: base, fps: make(map[uint64]struct{})}, nil
}

// syncDir fsyncs a directory so renames/creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// NextOffset returns the offset the next appended record will get — equal
// to the total records ever appended.
func (w *WAL) NextOffset() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// DurableOffset returns the fsynced frontier: every record below it
// survives a crash.
func (w *WAL) DurableOffset() uint64 { return w.durable.Load() }

// Append hands one record to the writer, which encodes it against the
// active segment's statement table, returning the record's offset (the
// k-th record ever appended has offset k). It does not wait for durability
// — call SyncTo(off+1) before acknowledging the record. Append blocks only
// when the staging buffer is full (the disk is behind).
func (w *WAL) Append(rec qlog.Record, fp uint64) (uint64, error) {
	rec.Stmt = nil // never serialised; do not pin the memo entry in staging
	w.mu.Lock()
	// Wait for space BEFORE taking an offset, so blocked appenders cannot
	// stage out of offset order when they resume.
	for !w.closed && len(w.staged) >= bufferedAppends {
		w.spaceCond.Wait()
	}
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	off := w.next
	w.next++
	w.staged = append(w.staged, walOp{rec: rec, off: off, fp: fp})
	// Records pool in staging until a barrier arrives or a full batch forms;
	// the durability contract is Sync's, so nothing is owed to disk yet.
	if len(w.staged) >= walBatchTarget && !w.kick {
		w.kick = true
		w.workCond.Signal()
	}
	w.mu.Unlock()
	appendTotal.Inc()
	return off, nil
}

// Sync blocks until every record appended before the call is durable
// (written and fsynced). Concurrent Syncs coalesce into one fsync — the
// group commit the ingest path amortises its durability on.
func (w *WAL) Sync() error {
	w.mu.Lock()
	target := w.next
	w.mu.Unlock()
	return w.SyncTo(target)
}

// SyncTo blocks until the durable frontier reaches target (every record
// with offset < target survives a crash). A caller that tracks the offsets
// of its own appends free-rides on fsyncs triggered by other callers'
// barriers: if a group commit already covered target, SyncTo returns
// without scheduling another fsync — Sync cannot, because concurrent
// appends keep pushing the frontier it waits for.
func (w *WAL) SyncTo(target uint64) error {
	if errp := w.failed.Load(); errp != nil {
		return *errp
	}
	if w.durable.Load() >= target {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		if errp := w.failed.Load(); errp != nil {
			return *errp
		}
		return ErrClosed
	}
	if w.durable.Load() >= target {
		w.mu.Unlock()
		return nil
	}
	// Barriers bypass the staging cap: they carry no payload, and a Sync
	// behind a full buffer must still reach the writer to drain it. The
	// barrier needs no target of its own — staging preserves offset order,
	// so by the time the writer reaches it every earlier record is written
	// and the batch fsync covers them all.
	ch := make(chan error, 1)
	w.staged = append(w.staged, walOp{sync: ch, target: target})
	if !w.kick {
		w.kick = true
		w.workCond.Signal()
	}
	w.mu.Unlock()
	return <-ch
}

// Close flushes and fsyncs the active segment, stops the writer and
// releases the file. The active segment stays unsealed so a reopened WAL
// continues appending to it.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.workCond.Signal()
	w.spaceCond.Broadcast()
	w.mu.Unlock()
	<-w.done
	if errp := w.failed.Load(); errp != nil {
		return *errp
	}
	return nil
}

// writer is the single goroutine owning the active file: it swaps out
// everything staged since its last pass (the group-commit batch), appends
// entries, rotates segments, and acknowledges sync barriers after one
// shared fsync per batch. Two slices alternate as staging and working
// storage, so steady state allocates nothing.
func (w *WAL) writer() {
	defer close(w.done)
	var spare []walOp
	for {
		w.mu.Lock()
		for !w.kick && !w.closed {
			w.workCond.Wait()
		}
		w.kick = false
		if len(w.staged) == 0 {
			if !w.closed {
				// Kicked with nothing staged (barrier already drained by the
				// previous pass); go back to sleep.
				w.mu.Unlock()
				continue
			}
			w.mu.Unlock()
			w.finishWriter()
			return
		}
		batch := w.staged
		w.staged = spare[:0]
		w.spaceCond.Broadcast()
		w.mu.Unlock()
		w.processBatch(batch)
		for i := range batch {
			batch[i] = walOp{} // drop record/chan refs so spare doesn't pin them
		}
		spare = batch
	}
}

// processBatch writes a batch's entries and, when it carries sync barriers,
// fsyncs once and wakes them all.
func (w *WAL) processBatch(batch []walOp) {
	sp := appendStage.Start()
	for i := range batch {
		op := &batch[i]
		if op.sync != nil {
			// A barrier staged after the fsync that covered its target (the
			// committer raced the frontier check) needs nothing from this
			// batch: acknowledge it without charging another fsync.
			if op.target > 0 && w.durable.Load() >= op.target && w.failed.Load() == nil {
				op.sync <- nil
				continue
			}
			w.wpending = append(w.wpending, op.sync)
			continue
		}
		if err := w.writeRecord(op); err != nil {
			w.fail(err)
			sp.End()
			w.ackPending()
			return
		}
	}
	sp.End()
	if len(w.wpending) > 0 {
		if err := w.fsync(); err != nil {
			w.fail(err)
		}
		w.ackPending()
	}
}

// writeRecord encodes one record against the active segment's statement
// table and appends it, rotating first when the active segment is over its
// size or time budget — and then encoding again, since the fresh segment's
// table is empty.
func (w *WAL) writeRecord(op *walOp) error {
	payload, kind := w.wtable.encode(w.wenc[:0], &op.rec, op.fp)
	size := int64(entryHeader + len(payload))
	w.segMu.Lock()
	needRotate := w.active.records > 0 &&
		(w.wsize+size > w.opt.SegmentBytes ||
			(w.opt.SegmentWindow > 0 && op.rec.Time-w.active.minT >= w.opt.SegmentWindow))
	w.segMu.Unlock()
	if needRotate {
		if err := w.rotate(); err != nil {
			return err
		}
		payload, kind = w.wtable.encode(w.wenc[:0], &op.rec, op.fp)
		size = int64(entryHeader + len(payload))
	}
	w.wenc = payload
	// The header lives in the WAL, not on the stack: bufio may hand the
	// slice to the file's Write, which would move a local array to the heap
	// on every record.
	w.whdr = frameHeader(payload)
	if _, err := w.wbuf.Write(w.whdr[:]); err != nil {
		return err
	}
	if _, err := w.wbuf.Write(payload); err != nil {
		return err
	}
	switch kind {
	case kindDef:
		dictDefs.Inc()
	case kindRef:
		dictRefs.Inc()
	}
	bytesWritten.Add(size)
	w.wsize += size
	w.whighOff = op.off + 1
	w.segMu.Lock()
	m := w.active
	t := op.rec.Time
	if m.records == 0 {
		m.minT, m.maxT = t, t
	} else {
		if t < m.minT {
			m.minT = t
		}
		if t > m.maxT {
			m.maxT = t
		}
	}
	m.records++
	m.span++
	m.fps[op.fp] = struct{}{}
	w.segMu.Unlock()
	return nil
}

// rotate seals the active segment — footer entry, trailer, fsync — and
// opens a fresh one.
func (w *WAL) rotate() error {
	w.segMu.Lock()
	m := w.active
	ft := &footer{span: m.span, records: m.records, minT: m.minT, maxT: m.maxT, fps: sortedFps(m.fps)}
	w.segMu.Unlock()

	seal := sealBytes(ft)
	if _, err := w.wbuf.Write(seal); err != nil {
		return err
	}
	bytesWritten.Add(int64(len(seal)))
	if err := w.wbuf.Flush(); err != nil {
		return err
	}
	if err := w.wf.Sync(); err != nil {
		return err
	}
	if err := w.wf.Close(); err != nil {
		return err
	}
	fsyncTotal.Inc()
	segmentsSealed.Inc()

	next, err := w.createSegment(m.end())
	if err != nil {
		return err
	}
	f, err := os.OpenFile(next.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.wf, w.wsize = f, 0
	w.wbuf.Reset(f)
	w.wtable = stmtTable{}

	w.segMu.Lock()
	m.sealed = true
	w.sealed = append(w.sealed, m)
	w.active = next
	w.segMu.Unlock()
	return nil
}

// fsync flushes the write buffer, makes everything written so far durable
// and advances the frontier.
func (w *WAL) fsync() error {
	sp := fsyncStage.Start()
	defer sp.End()
	if err := w.wbuf.Flush(); err != nil {
		return err
	}
	if err := syncFile(w.wf); err != nil {
		return err
	}
	fsyncTotal.Inc()
	w.durable.Store(w.whighOff)
	return nil
}

// ackPending wakes every waiting sync barrier with the sticky error state.
func (w *WAL) ackPending() {
	var err error
	if errp := w.failed.Load(); errp != nil {
		err = *errp
	}
	for _, ch := range w.wpending {
		ch <- err
	}
	w.wpending = w.wpending[:0]
}

// fail latches the first write error: Sync reports it forever after, so a
// broken disk turns into rejected acks rather than silent data loss.
func (w *WAL) fail(err error) {
	werr := fmt.Errorf("wal: write failed: %w", err)
	w.failed.CompareAndSwap(nil, &werr)
}

// finishWriter flushes the tail on Close: one final fsync so Close implies
// durability of everything appended.
func (w *WAL) finishWriter() {
	if w.failed.Load() == nil {
		if err := w.fsync(); err != nil {
			w.fail(err)
		}
	}
	w.ackPending()
	_ = w.wf.Close()
}

func sortedFps(m map[uint64]struct{}) []uint64 {
	out := make([]uint64, 0, len(m))
	for fp := range m {
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Segments snapshots the index (sealed + active) in base-offset order.
func (w *WAL) Segments() []SegmentInfo {
	w.segMu.Lock()
	defer w.segMu.Unlock()
	out := make([]SegmentInfo, 0, len(w.sealed)+1)
	for _, m := range w.sealed {
		out = append(out, m.info())
	}
	out = append(out, w.active.info())
	return out
}

// SetCompactFloor marks every record below off as snapshot-covered: sealed
// segments wholly under the floor become compaction candidates, and replay
// never needs their exact entry order again.
func (w *WAL) SetCompactFloor(off uint64) {
	for {
		cur := w.compactFloor.Load()
		if off <= cur || w.compactFloor.CompareAndSwap(cur, off) {
			return
		}
	}
}

// snapshotMetas copies the segment metas for lock-free iteration. The
// active meta is copied by value (its fps map is cloned) so a concurrent
// append cannot race a reader.
func (w *WAL) snapshotMetas() []*segMeta {
	w.segMu.Lock()
	defer w.segMu.Unlock()
	out := make([]*segMeta, 0, len(w.sealed)+1)
	out = append(out, w.sealed...)
	a := *w.active
	a.fps = make(map[uint64]struct{}, len(w.active.fps))
	for fp := range w.active.fps {
		a.fps[fp] = struct{}{}
	}
	out = append(out, &a)
	return out
}

// Replay streams every record with offset >= from, in append order,
// stopping at the durable frontier. It is the crash-recovery path: a
// server replays from its snapshot's covered offset to rebuild the mining
// state the snapshot does not hold.
func (w *WAL) Replay(from uint64, fn func(qlog.Record) error) error {
	sp := replayStage.Start()
	defer sp.End()
	if err := w.Sync(); err != nil {
		return err
	}
	limit := w.durable.Load()
	for _, m := range w.snapshotMetas() {
		if m.end() <= from || m.base >= limit {
			continue
		}
		idx := m.base
		err := scanFile(m.path, func(rec qlog.Record, fp uint64) error {
			off := idx
			idx++
			if off < from || off >= limit {
				return nil
			}
			replayTotal.Inc()
			return fn(rec)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ReadWindow streams records whose Time lies in [from, to), optionally
// restricted to a set of statement fingerprints, using the segment index to
// open only segments that can match. Segments are read in WAL order, and an
// uncompacted segment yields its records in WAL order; a compacted one
// yields them family by family (a family's records in WAL order), with
// families in order of first occurrence. The returned stats expose the
// index's skip win.
func (w *WAL) ReadWindow(from, to int64, fps []uint64, fn func(rec qlog.Record, fp uint64) error) (WindowStats, error) {
	return w.readWindow(from, to, fps, fn, true)
}

// ReadWindowScanAll is ReadWindow without the segment index — every segment
// is opened and scanned. Tests use it as the reference oracle: the index
// must yield exactly the records a full scan does.
func (w *WAL) ReadWindowScanAll(from, to int64, fps []uint64, fn func(rec qlog.Record, fp uint64) error) (WindowStats, error) {
	return w.readWindow(from, to, fps, fn, false)
}

func (w *WAL) readWindow(from, to int64, fps []uint64, fn func(rec qlog.Record, fp uint64) error, useIndex bool) (WindowStats, error) {
	var st WindowStats
	if err := w.Sync(); err != nil {
		return st, err
	}
	limit := w.durable.Load()
	match := func(fp uint64) bool {
		if len(fps) == 0 {
			return true
		}
		for _, want := range fps {
			if fp == want {
				return true
			}
		}
		return false
	}
	for _, m := range w.snapshotMetas() {
		if m.base >= limit {
			continue
		}
		if useIndex && !m.overlaps(from, to, fps) {
			st.SegmentsSkipped++
			segmentsSkipped.Inc()
			continue
		}
		st.SegmentsScanned++
		idx := m.base
		err := scanFile(m.path, func(rec qlog.Record, fp uint64) error {
			off := idx
			idx++
			if off >= limit {
				return nil
			}
			if rec.Time < from || rec.Time >= to || !match(fp) {
				return nil
			}
			st.Records++
			return fn(rec, fp)
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// scanFile runs scanSegment over one segment file. Torn tails end the scan
// silently (scanSegment's contract); callers bound delivery by the durable
// frontier instead.
func scanFile(path string, onRecord func(qlog.Record, uint64) error) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // compacted away concurrently; nothing durable lost
	}
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = scanSegment(f, onRecord)
	return err
}
