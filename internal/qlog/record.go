// Package qlog provides query-log infrastructure: the record format,
// CSV/JSONL serialisation, a staged extraction pipeline with the per-stage
// timing statistics of Section 6.6, and a stream monitor that notifies the
// operator when new predicates or query types appear in an incoming stream
// (the extension sketched in Section 4's introduction).
package qlog

import (
	"bufio"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/extract"
)

// Record is one query-log line.
type Record struct {
	Seq  int    `json:"seq"`
	Time int64  `json:"time"`
	User string `json:"user"`
	SQL  string `json:"sql"`
	// Class is the traffic class the record belongs to ("bot", "human",
	// "admin", or "" when unclassified). Explicit tags survive JSON ingest
	// and the WAL; untagged records are classified at admission when the
	// serving layer has traffic mining enabled. CSV stays the 4-column
	// paper-log format, so the class never round-trips through WriteCSV.
	Class string `json:"class,omitempty"`

	// Stmt is the statement's exact-text memo entry (lexer pass and, once
	// extracted, outcome), attached by an upstream stage that already looked
	// the text up — WAL admission fingerprints every record for the segment
	// index — so the pipeline does not look it up a second time. Never
	// serialised: a decoded or replayed record looks it up afresh.
	Stmt *extract.Stmt `json:"-"`
}

// WriteCSV serialises records with a header row.
func WriteCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "time", "user", "sql"}); err != nil {
		return err
	}
	for _, r := range recs {
		if err := cw.Write([]string{
			strconv.Itoa(r.Seq), strconv.FormatInt(r.Time, 10), r.User, r.SQL,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	var out []Record
	if err := ReadCSVStream(context.Background(), r, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadCSVStream parses records written by WriteCSV one row at a time,
// invoking fn for each without materialising the whole log. A non-nil error
// from fn aborts the read and is returned unchanged. Cancelling ctx aborts
// before the next row and returns ctx.Err(), so a shutting-down server
// stops mid-file instead of draining it.
func ReadCSVStream(ctx context.Context, r io.Reader, fn func(Record) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	done := ctx.Done()
	for i := 0; ; i++ {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if i == 0 && row[0] == "seq" {
			continue // header
		}
		seq, err := strconv.Atoi(row[0])
		if err != nil {
			return fmt.Errorf("qlog: row %d: bad seq %q", i, row[0])
		}
		ts, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			return fmt.Errorf("qlog: row %d: bad time %q", i, row[1])
		}
		if err := fn(Record{Seq: seq, Time: ts, User: row[2], SQL: row[3]}); err != nil {
			return err
		}
	}
}

// WriteJSONL serialises records one JSON object per line.
func WriteJSONL(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses JSONL records.
func ReadJSONL(r io.Reader) ([]Record, error) {
	var out []Record
	if err := ReadJSONLStream(context.Background(), r, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadJSONLStream parses JSONL records one line at a time, invoking fn for
// each without materialising the whole log. A non-nil error from fn aborts
// the read and is returned unchanged. Cancelling ctx aborts before the next
// line and returns ctx.Err().
func ReadJSONLStream(ctx context.Context, r io.Reader, fn func(Record) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	done := ctx.Done()
	line := 0
	for sc.Scan() {
		line++
		select {
		case <-done:
			return ctx.Err()
		default:
		}
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("qlog: line %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return sc.Err()
}
