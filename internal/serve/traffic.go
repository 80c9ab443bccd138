package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/qlog"
	"repro/internal/traffic"
)

// classCounts is one traffic class's slice of the pipeline counters: how
// many processed records the class received and how many of them produced
// an access area. Together they synthesise the class report's statement /
// extraction header — the per-class partition of the global pipeline stats.
type classCounts struct {
	total     atomic.Int64
	extracted atomic.Int64
}

// trafficState bundles the traffic-mining subsystem: the online classifier
// and interface miner (fed by the pump in processing order, under tmu), one
// substrate-sharing incremental miner per class (pump feeds, epochs
// recluster), and the drift detector (epoch lock).
type trafficState struct {
	cfg traffic.Config

	// tmu guards classifier and ifaces. The pump observes under it in
	// processing order — which equals admission order (single consumer) —
	// so the class of every record is a pure function of the ingest script
	// and WAL replay reproduces it exactly.
	tmu        sync.Mutex
	classifier *traffic.Classifier
	ifaces     *traffic.Interfaces

	// sub is the shared distance substrate: the global miner and the three
	// class miners cluster overlapping area populations, so each pair's
	// distance is computed once, whoever needs it first.
	sub    *core.Substrate
	incs   map[string]*core.Incremental
	counts map[string]*classCounts

	// drift state is guarded by Server.epochMu: only forced (flush /
	// shutdown) epochs observe drift, so the event log is deterministic for
	// a given ingest → flush script. driftOn stays false until NewServer's
	// anchoring epoch has run — restore must not diff against itself.
	drift       *traffic.Drift
	driftEpochs int64
	driftOn     bool
	driftEvents atomic.Int64
}

func newTrafficState(cfg traffic.Config, miner *core.Miner) *trafficState {
	t := &trafficState{
		cfg:        cfg,
		classifier: traffic.NewClassifier(cfg),
		ifaces:     traffic.NewInterfaces(0, 0),
		drift:      traffic.NewDrift(),
		sub:        miner.Substrate(),
		incs:       make(map[string]*core.Incremental, len(traffic.Classes)),
		counts:     make(map[string]*classCounts, len(traffic.Classes)),
	}
	for _, cls := range traffic.Classes {
		t.incs[cls] = miner.IncrementalShared(t.sub)
		t.counts[cls] = &classCounts{}
	}
	return t
}

// classifyBatch assigns a traffic class to every record of one batch, in
// order, before the batch enters the pipeline. Explicitly tagged records
// keep their tag but are still observed — the classifier's state must be a
// function of the full processed sequence for WAL replay to reproduce it.
// Records arriving without the admission-time memo entry (no WAL, or WAL
// replay) look their text up here; the pipeline reuses the entry.
func (s *Server) classifyBatch(batch []qlog.Record) {
	t := s.traffic
	t.tmu.Lock()
	defer t.tmu.Unlock()
	for i := range batch {
		rec := &batch[i]
		if rec.Stmt == nil {
			rec.Stmt = s.pipe.Cache.Stmt(rec.SQL)
		}
		fp, lits, lexed := rec.Stmt.Fingerprint()
		cls := t.classifier.Observe(rec.User, rec.Time, fp, rec.SQL)
		if !traffic.ValidClass(rec.Class) {
			rec.Class = cls
		}
		if lexed {
			t.ifaces.Observe(fp, rec.SQL, lits)
		}
		t.counts[rec.Class].total.Add(1)
	}
}

// extractBatch runs one batch through classification (when traffic mining
// is on) and the extraction pipeline, feeding the global miner and — per
// record class — the class miners. Both the pump and WAL replay drain
// through it, so live and replayed runs classify and mine identically.
func (s *Server) extractBatch(batch []qlog.Record) *qlog.Stats {
	if s.traffic != nil {
		s.classifyBatch(batch)
	}
	areas, st := s.pipe.Run(batch)
	for i := range areas {
		ar := &areas[i]
		if s.inc.Add(ar) {
			s.newSinceEpoch.Add(1)
		}
		if t := s.traffic; t != nil {
			if cinc := t.incs[ar.Record.Class]; cinc != nil {
				cinc.Add(ar)
				t.counts[ar.Record.Class].extracted.Add(1)
			}
		}
	}
	return st
}

// reclusterClasses runs the per-class slice of one epoch. Caller holds
// epochMu; the global recluster has already interned every area into the
// shared substrate, so the class reclusters are mostly cache lookups. Drift
// is observed only at forced epochs (deterministic boundaries) and only
// once the server has anchored.
func (s *Server) reclusterClasses(force bool) map[string]*core.Result {
	t := s.traffic
	classRes := make(map[string]*core.Result, len(traffic.Classes))
	for _, cls := range traffic.Classes {
		r := t.incs[cls].Recluster()
		cc := t.counts[cls]
		r.PipelineStats = &qlog.Stats{
			Total:     int(cc.total.Load()),
			Extracted: int(cc.extracted.Load()),
		}
		if s.cfg.Coverage != nil {
			s.cov.attach(r, s.cfg.Coverage)
		}
		classRes[cls] = r
	}
	if force && t.driftOn {
		t.driftEpochs++
		for _, cls := range traffic.Classes {
			ev := t.drift.Observe(cls, t.driftEpochs, classRes[cls].Clusters)
			t.driftEvents.Add(int64(len(ev)))
		}
	}
	return classRes
}

// TrafficEnabled reports whether the server mines per traffic class.
func (s *Server) TrafficEnabled() bool { return s.traffic != nil }

// DriftEvents returns the retained drift-event log, optionally filtered to
// one class ("" = all). The slice is a copy.
func (s *Server) DriftEvents(class string) []traffic.Event {
	if s.traffic == nil {
		return nil
	}
	s.epochMu.Lock()
	defer s.epochMu.Unlock()
	return s.traffic.drift.Events(class)
}

// Interfaces renders the top-K hottest statement templates as
// parameterized query interfaces (top <= 0 = every tracked one) and reports
// how many fingerprints the interface miner tracks (nil, 0 with traffic
// mining off).
func (s *Server) Interfaces(top int) ([]traffic.Interface, int) {
	t := s.traffic
	if t == nil {
		return nil, 0
	}
	t.tmu.Lock()
	defer t.tmu.Unlock()
	tracked := t.ifaces.Len()
	if top <= 0 {
		top = tracked
	}
	return t.ifaces.Render(top, s.pipe.Cache), tracked
}

// TrafficUserClasses returns every tracked user's final class — the
// per-user judgement tests score against ground truth.
func (s *Server) TrafficUserClasses() map[string]string {
	t := s.traffic
	if t == nil {
		return nil
	}
	t.tmu.Lock()
	defer t.tmu.Unlock()
	return t.classifier.UserClasses()
}

func (t *trafficState) trackedInterfaces() int {
	t.tmu.Lock()
	defer t.tmu.Unlock()
	return t.ifaces.Len()
}

// TrafficSnapshot is the snapshot section for the traffic subsystem: the
// classifier's per-user state, the interface miner, the drift detector, and
// one mining state per class. All of it covers exactly the processed
// records (classification happens in the pump), so WAL replay from the
// snapshot's offset continues it without double-observing.
type TrafficSnapshot struct {
	Classifier  *traffic.ClassifierState      `json:"classifier,omitempty"`
	Interfaces  *traffic.InterfacesState      `json:"interfaces,omitempty"`
	Drift       *traffic.DriftState           `json:"drift,omitempty"`
	DriftEpochs int64                         `json:"drift_epochs,omitempty"`
	Mining      map[string]*core.State        `json:"mining,omitempty"`
	Counts      map[string]TrafficClassCounts `json:"counts,omitempty"`
}

// TrafficClassCounts is one class's serialised pipeline counters.
type TrafficClassCounts struct {
	Total     int64 `json:"total"`
	Extracted int64 `json:"extracted"`
}

// exportTraffic builds the snapshot section. Caller holds snapMu (which
// excludes the pump) and epochMu (which guards the drift state).
func (s *Server) exportTraffic() *TrafficSnapshot {
	t := s.traffic
	if t == nil {
		return nil
	}
	t.tmu.Lock()
	snap := &TrafficSnapshot{
		Classifier: t.classifier.ExportState(),
		Interfaces: t.ifaces.ExportState(),
		Mining:     make(map[string]*core.State, len(traffic.Classes)),
		Counts:     make(map[string]TrafficClassCounts, len(traffic.Classes)),
	}
	t.tmu.Unlock()
	for _, cls := range traffic.Classes {
		snap.Mining[cls] = t.incs[cls].ExportState()
		cc := t.counts[cls]
		snap.Counts[cls] = TrafficClassCounts{
			Total:     cc.total.Load(),
			Extracted: cc.extracted.Load(),
		}
	}
	snap.Drift = t.drift.ExportState()
	snap.DriftEpochs = t.driftEpochs
	return snap
}

// restoreTraffic loads the snapshot section. Runs inside restoreSnapshot,
// before any worker starts, with the registry already restored.
func (s *Server) restoreTraffic(snap *TrafficSnapshot) error {
	t := s.traffic
	if t == nil || snap == nil {
		return nil
	}
	if snap.Classifier != nil {
		t.classifier.RestoreState(snap.Classifier)
	}
	if snap.Interfaces != nil {
		t.ifaces.RestoreState(snap.Interfaces)
	}
	if snap.Drift != nil {
		t.drift.RestoreState(snap.Drift)
		t.driftEvents.Store(int64(len(snap.Drift.Events)))
	}
	t.driftEpochs = snap.DriftEpochs
	for _, cls := range traffic.Classes {
		if st := snap.Mining[cls]; st != nil {
			if err := t.incs[cls].RestoreState(st, s.pipe); err != nil {
				return err
			}
		}
		if cc, ok := snap.Counts[cls]; ok {
			t.counts[cls].total.Store(cc.Total)
			t.counts[cls].extracted.Store(cc.Extracted)
		}
	}
	return nil
}
