package wal

import (
	"bufio"
	"os"

	"repro/internal/qlog"
)

// CompactStats summarises one Compact pass.
type CompactStats struct {
	Segments int   // segments rewritten
	Deduped  int   // duplicate records folded into groups
	BytesIn  int64 // segment bytes before
	BytesOut int64 // segment bytes after
}

// famKey identifies one duplicate family: same statement fingerprint, same
// user, same literal statement text, same traffic class — class-tagged
// records never fold into a family of a different class, so expansion
// replays the classes exactly.
type famKey struct {
	fp    uint64
	user  string
	sql   string
	class string
}

// Compact rewrites every cold segment — sealed AND wholly below the
// compaction floor, i.e. fully covered by a persisted snapshot — collapsing
// duplicate (fingerprint, user, sql, class) families into delta-coded group
// entries that expand losslessly, every occurrence's (seq, time) preserved.
// Every record survives: one whose statement never lexed (fingerprint 0)
// stays a single, because /remine counts it in a window's statements and
// its extraction coverage. The footer keeps the segment's logical span, so
// offset arithmetic over the log stays exact. Rewrites are atomic
// (temp file, rename, directory fsync); a crash mid-compaction leaves
// either the old or the new file, both complete.
func (w *WAL) Compact() (CompactStats, error) {
	sp := compactStage.Start()
	defer sp.End()
	var st CompactStats
	floor := w.compactFloor.Load()

	w.segMu.Lock()
	var cold []*segMeta
	for _, m := range w.sealed {
		if m.end() <= floor && !m.compacted {
			cold = append(cold, m)
		}
	}
	w.segMu.Unlock()

	for _, m := range cold {
		if err := w.compactSegment(m, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// compactSegment rewrites one cold segment in place.
func (w *WAL) compactSegment(m *segMeta, st *CompactStats) error {
	before, err := os.Stat(m.path)
	if err != nil {
		return err
	}

	// Pass 1: group records by family in first-seen order. A record that
	// never lexed has no fingerprint to key a family by and forms its own.
	type family struct {
		key   famKey
		seqs  []int
		times []int64
	}
	idx := make(map[famKey]int)
	var fams []*family
	err = scanFile(m.path, func(rec qlog.Record, fp uint64) error {
		k := famKey{fp: fp, user: rec.User, sql: rec.SQL, class: rec.Class}
		i, ok := idx[k]
		if !ok || fp == 0 {
			i = len(fams)
			if fp != 0 {
				idx[k] = i
			}
			fams = append(fams, &family{key: k})
		}
		f := fams[i]
		f.seqs = append(f.seqs, rec.Seq)
		f.times = append(f.times, rec.Time)
		return nil
	})
	if err != nil {
		return err
	}

	// Pass 2: rewrite. Singles go through the statement-table encoder, so a
	// text shared by several singles (different users or classes) is stored
	// once and the rewritten segment stays self-contained; families of two
	// or more become one group entry.
	tmp := m.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var (
		records uint64
		minT    int64
		maxT    int64
		fpset   = make(map[uint64]struct{})
		buf     []byte
		enc     []byte
		table   stmtTable
		deduped = 0
	)
	seeTime := func(t int64) {
		if records == 0 {
			minT, maxT = t, t
			return
		}
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
	}
	for _, fam := range fams {
		fpset[fam.key.fp] = struct{}{}
		if len(fam.seqs) == 1 {
			rec := qlog.Record{Seq: fam.seqs[0], Time: fam.times[0], User: fam.key.user, SQL: fam.key.sql, Class: fam.key.class}
			seeTime(rec.Time)
			records++
			enc, _ = table.encode(enc[:0], &rec, fam.key.fp)
			buf = frame(buf[:0], enc)
		} else {
			g := group{fp: fam.key.fp, user: fam.key.user, sql: fam.key.sql, class: fam.key.class, seqs: fam.seqs, times: fam.times}
			for _, t := range fam.times {
				seeTime(t)
				records++
			}
			deduped += len(fam.seqs) - 1
			buf = frame(buf[:0], encodeGroup(nil, &g))
		}
		if _, err := bw.Write(buf); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}

	// Footer + trailer: span is the segment's logical count, the offset
	// arithmetic contract; records counts the same records, groups expanded.
	ft := &footer{span: m.span, records: records, minT: minT, maxT: maxT, fps: sortedFps(fpset)}
	if _, err := bw.Write(sealBytes(ft)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, m.path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	after, err := os.Stat(m.path)
	if err != nil {
		return err
	}

	w.segMu.Lock()
	m.records = records
	m.minT, m.maxT = minT, maxT
	m.fps = fpset
	m.compacted = true
	w.segMu.Unlock()

	st.Segments++
	st.Deduped += deduped
	st.BytesIn += before.Size()
	st.BytesOut += after.Size()
	compactionsRun.Inc()
	compactDeduped.Add(int64(deduped))
	return nil
}
