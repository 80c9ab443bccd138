package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/qlog"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// windowDrift feeds each window's clusters, in order, to one drift detector
// and returns every event it emits.
func windowDrift(windows []WindowResult) []traffic.Event {
	d := traffic.NewDrift()
	var out []traffic.Event
	for i, w := range windows {
		out = append(out, d.Observe("", int64(i), w.Result.Clusters)...)
	}
	return out
}

// trendLog builds a log with a shifting workload: window 0 hammers Photoz
// objid lookups, window 1 keeps them and adds zooSpec rectangles, window 2
// drops the Photoz population entirely.
func trendLog() []qlog.Record {
	var recs []qlog.Record
	add := func(tm int64, sql string) {
		recs = append(recs, qlog.Record{Seq: len(recs), Time: tm, User: fmt.Sprintf("u%d", len(recs)), SQL: sql})
	}
	for i := 0; i < 30; i++ {
		add(int64(i), fmt.Sprintf("SELECT z FROM Photoz WHERE objid = %d", 1000+i%5))
	}
	for i := 0; i < 30; i++ {
		add(1000+int64(i), fmt.Sprintf("SELECT z FROM Photoz WHERE objid = %d", 1000+i%5))
		add(1000+int64(i), "SELECT * FROM zooSpec WHERE ra BETWEEN 10 AND 20 AND dec BETWEEN 0 AND 5")
	}
	for i := 0; i < 30; i++ {
		add(2000+int64(i), "SELECT * FROM zooSpec WHERE ra BETWEEN 10 AND 20 AND dec BETWEEN 0 AND 5")
	}
	return recs
}

func TestMineWindowsAndTrends(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema(), MinPts: 5})
	windows := m.MineWindows(trendLog(), 1000)
	if len(windows) != 3 {
		t.Fatalf("windows = %d", len(windows))
	}
	var kinds []string
	for _, e := range windowDrift(windows) {
		kinds = append(kinds, fmt.Sprintf("w%d:%s:%s", e.Epoch, e.Kind, strings.Join(e.Relations, ",")))
	}
	joined := strings.Join(kinds, "\n")
	for _, want := range []string{"w0:appeared:Photoz", "w1:appeared:zooSpec", "w2:vanished:Photoz"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "w1:vanished") || strings.Contains(joined, "w2:appeared") {
		t.Errorf("unexpected events:\n%s", joined)
	}
}

func TestMineWindowsEmpty(t *testing.T) {
	m := NewMiner(Config{Schema: skyserver.Schema()})
	if w := m.MineWindows(nil, 100); w != nil {
		t.Errorf("windows = %v", w)
	}
	if w := m.MineWindows(trendLog(), 0); w != nil {
		t.Errorf("zero window size should give nil")
	}
}

func TestTrendsGrowShrink(t *testing.T) {
	var recs []qlog.Record
	add := func(tm int64, n int) {
		for i := 0; i < n; i++ {
			recs = append(recs, qlog.Record{Seq: len(recs), Time: tm, User: fmt.Sprintf("u%d", len(recs)),
				SQL: "SELECT * FROM Photoz WHERE z >= 0 AND z <= 0.1"})
		}
	}
	add(0, 10)
	add(1000, 40) // 4x growth
	add(2000, 10) // shrink
	m := NewMiner(Config{Schema: skyserver.Schema(), MinPts: 5})
	windows := m.MineWindows(recs, 1000)
	events := windowDrift(windows)
	sawGrow, sawShrink := false, false
	for _, e := range events {
		if e.Kind == traffic.DriftGrew && e.Epoch == 1 {
			sawGrow = true
		}
		if e.Kind == traffic.DriftShrank && e.Epoch == 2 {
			sawShrink = true
		}
	}
	if !sawGrow || !sawShrink {
		t.Errorf("events = %+v", events)
	}
}
