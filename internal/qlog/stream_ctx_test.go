package qlog

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/extract"
	"repro/internal/par"
	"repro/internal/skyserver"
)

// Cancelling the context must stop RunStream before the source drains: the
// feeder stops pulling, in-flight records retire, and the stats cover only
// the admitted prefix.
func TestRunStreamCancelStopsMidStream(t *testing.T) {
	recs := workloadRecords(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())

	const cutoff = 200
	pulled := 0
	src := func() (Record, bool) {
		if pulled >= len(recs) {
			return Record{}, false
		}
		r := recs[pulled]
		pulled++
		if pulled == cutoff {
			cancel() // cancel while the stream is mid-flight
		}
		return r, true
	}

	p := &Pipeline{Extractor: extract.New(skyserver.Schema()), Workers: 4}
	st := p.RunStream(ctx, src, nil)

	if pulled == len(recs) {
		t.Fatalf("cancelled stream drained the whole source (%d records)", pulled)
	}
	if st.Total > pulled {
		t.Errorf("stats cover %d records but only %d were pulled", st.Total, pulled)
	}
	if st.Total == 0 {
		t.Error("no records processed before cancellation")
	}
	if ctx.Err() == nil {
		t.Error("context unexpectedly alive")
	}
}

// A context cancelled before the run starts admits nothing.
func TestRunStreamCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &Pipeline{Extractor: extract.New(skyserver.Schema())}
	st := p.RunStream(ctx, SliceSource(workloadRecords(t, 50)), nil)
	if st.Total != 0 {
		t.Errorf("pre-cancelled stream processed %d records", st.Total)
	}
}

// The streaming readers must abort with ctx.Err() instead of draining the
// reader when the context dies.
func TestStreamReadersHonourContext(t *testing.T) {
	recs := workloadRecords(t, 100)
	var csvBuf, jsonlBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonlBuf, recs); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		run  func(ctx context.Context, fn func(Record) error) error
	}{
		{"csv", func(ctx context.Context, fn func(Record) error) error {
			return ReadCSVStream(ctx, bytes.NewReader(csvBuf.Bytes()), fn)
		}},
		{"jsonl", func(ctx context.Context, fn func(Record) error) error {
			return ReadJSONLStream(ctx, bytes.NewReader(jsonlBuf.Bytes()), fn)
		}},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := tc.run(ctx, func(Record) error {
			seen++
			if seen == 10 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
		if seen >= len(recs) {
			t.Errorf("%s: cancelled read drained all %d records", tc.name, seen)
		}
	}
}

// Two pipeline runs finishing concurrently — the serving layer's overlapping
// epochs — must be safely mergeable into one cumulative Stats as long as the
// merges themselves are serialised. Run under -race (the qlog package is in
// the Makefile race gate) this doubles as the data-race audit for
// Stats/StageTime merging with a shared template cache.
func TestStatsMergeConcurrentEpochs(t *testing.T) {
	recs := workloadRecords(t, 1200)
	sch := skyserver.Schema()
	shared := &extract.TemplateCache{}

	const runs = 4
	var (
		mu    sync.Mutex
		total Stats
	)
	par.For(runs, runs, func(int) {
		p := &Pipeline{Extractor: extract.New(sch), Workers: 2, Cache: shared}
		st := p.RunStream(context.Background(), SliceSource(recs), nil)
		mu.Lock()
		total.Merge(st)
		mu.Unlock()
	})

	if total.Total != runs*len(recs) {
		t.Fatalf("merged total = %d, want %d", total.Total, runs*len(recs))
	}
	if total.Parse.Count != total.Total {
		t.Errorf("merged Parse.Count = %d, want %d", total.Parse.Count, total.Total)
	}
	single := &Pipeline{Extractor: extract.New(sch), NoCache: true}
	_, ref := single.Run(recs)
	if total.Extracted != runs*ref.Extracted {
		t.Errorf("merged Extracted = %d, want %d", total.Extracted, runs*ref.Extracted)
	}
}
