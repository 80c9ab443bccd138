package qlog

import (
	"testing"

	"repro/internal/extract"
	"repro/internal/skyserver"
	"repro/internal/sqlparser"
)

func TestSessionizeSplitsOnGap(t *testing.T) {
	recs := []Record{
		{Seq: 0, Time: 0, User: "alice", SQL: "SELECT 1"},
		{Seq: 1, Time: 100, User: "alice", SQL: "SELECT 2"},
		{Seq: 2, Time: 5000, User: "alice", SQL: "SELECT 3"}, // new session
		{Seq: 3, Time: 50, User: "bob", SQL: "SELECT 4"},
	}
	sessions := Sessionize(recs, 1800)
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d, want 3", len(sessions))
	}
	// Sorted by start time: alice@0, bob@50, alice@5000.
	if sessions[0].User != "alice" || len(sessions[0].Records) != 2 {
		t.Errorf("s0 = %+v", sessions[0])
	}
	if sessions[1].User != "bob" {
		t.Errorf("s1 = %+v", sessions[1])
	}
	if sessions[2].Start != 5000 || sessions[2].Duration() != 0 {
		t.Errorf("s2 = %+v", sessions[2])
	}
}

func TestSessionizeEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
		gap  int64
		want []struct {
			user  string
			start int64
			n     int
		}
	}{
		{
			name: "empty input",
			recs: nil, gap: 1800,
			want: nil,
		},
		{
			name: "single record",
			recs: []Record{{Seq: 0, Time: 7, User: "solo", SQL: "SELECT 1"}},
			gap:  1800,
			want: []struct {
				user  string
				start int64
				n     int
			}{{"solo", 7, 1}},
		},
		{
			// A gap exactly equal to the timeout stays in the session (the
			// split condition is strictly greater-than), one past it splits.
			name: "exact gap boundary",
			recs: []Record{
				{Seq: 0, Time: 0, User: "u", SQL: "a"},
				{Seq: 1, Time: 1800, User: "u", SQL: "b"},
				{Seq: 2, Time: 3601, User: "u", SQL: "c"},
			},
			gap: 1800,
			want: []struct {
				user  string
				start int64
				n     int
			}{{"u", 0, 2}, {"u", 3601, 1}},
		},
		{
			// Zero gap: identical timestamps share a session, any positive
			// gap splits.
			name: "zero gap",
			recs: []Record{
				{Seq: 0, Time: 5, User: "u", SQL: "a"},
				{Seq: 1, Time: 5, User: "u", SQL: "b"},
				{Seq: 2, Time: 6, User: "u", SQL: "c"},
			},
			gap: 0,
			want: []struct {
				user  string
				start int64
				n     int
			}{{"u", 5, 2}, {"u", 6, 1}},
		},
		{
			// Negative gap clamps to zero rather than splitting same-time
			// records or underflowing the comparison.
			name: "negative gap",
			recs: []Record{
				{Seq: 0, Time: 5, User: "u", SQL: "a"},
				{Seq: 1, Time: 5, User: "u", SQL: "b"},
				{Seq: 2, Time: 9, User: "u", SQL: "c"},
			},
			gap: -100,
			want: []struct {
				user  string
				start int64
				n     int
			}{{"u", 5, 2}, {"u", 9, 1}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Sessionize(c.recs, c.gap)
			if len(got) != len(c.want) {
				t.Fatalf("sessions = %d, want %d (%+v)", len(got), len(c.want), got)
			}
			for i, w := range c.want {
				s := got[i]
				if s.User != w.user || s.Start != w.start || len(s.Records) != w.n {
					t.Errorf("session %d = {user %s start %d n %d}, want %+v",
						i, s.User, s.Start, len(s.Records), w)
				}
				if len(s.Records) == 0 {
					t.Errorf("session %d is empty", i)
				}
			}
		})
	}
}

func TestSessionizeUnsortedInput(t *testing.T) {
	recs := []Record{
		{Seq: 0, Time: 200, User: "u", SQL: "b"},
		{Seq: 1, Time: 0, User: "u", SQL: "a"},
	}
	sessions := Sessionize(recs, 1800)
	if len(sessions) != 1 || sessions[0].Records[0].SQL != "a" {
		t.Fatalf("sessions = %+v", sessions)
	}
}

func TestSkeleton(t *testing.T) {
	a := Skeleton("SELECT z FROM Photoz WHERE objid = 1237657855534432934")
	b := Skeleton("select  Z from PHOTOZ where OBJID=42")
	if a != b {
		t.Errorf("skeletons differ:\n%q\n%q", a, b)
	}
	c := Skeleton("SELECT z FROM Photoz WHERE objid > 42")
	if a == c {
		t.Error("different operators must differ")
	}
	d := Skeleton("SELECT * FROM S WHERE class = 'star'")
	e := Skeleton("SELECT * FROM S WHERE class = 'galaxy'")
	if d != e {
		t.Error("string constants should be templated away")
	}
	// Unlexable input falls back to whitespace normalisation.
	if Skeleton("SELECT 'oops") == "" {
		t.Error("fallback skeleton empty")
	}
}

func TestClassifyIntent(t *testing.T) {
	cases := []struct {
		sql  string
		want Intent
	}{
		{"SELECT TOP 10 * FROM PhotoObjAll", TestQuery},
		{"SELECT * FROM PhotoObjAll", TestQuery},
		{"SELECT * FROM PhotoObjAll WHERE ra < 100", TestQuery},
		{"SELECT Galaxies.objid FROM Galaxies LIMIT 10", TestQuery},
		{"SELECT ra, dec FROM PhotoObjAll WHERE ra BETWEEN 10 AND 120 AND dec BETWEEN -90 AND -50", FinalQuery},
		{"SELECT plate, COUNT(*) FROM SpecObjAll WHERE class = 'star' AND mjd > 52000 GROUP BY plate", FinalQuery},
		{"SELECT TOP 500000 ra FROM PhotoObjAll WHERE ra < 10 AND dec < 10", FinalQuery},
	}
	for _, c := range cases {
		sel, err := sqlparser.ParseSelect(c.sql)
		if err != nil {
			t.Fatalf("%q: %v", c.sql, err)
		}
		if got := ClassifyIntent(sel); got != c.want {
			t.Errorf("%q: intent = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestClassifySkyAreaAndAccess(t *testing.T) {
	ex := extract.New(skyserver.Schema())
	mk := func(sql string) *extract.AccessArea {
		a, err := ex.ExtractSQL(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return a
	}
	cases := []struct {
		sql    string
		sky    SkyAreaKind
		access AccessKind
	}{
		{"SELECT * FROM PhotoObjAll WHERE ra BETWEEN 10 AND 120 AND dec BETWEEN -90 AND -50",
			RectangularSkyArea, SearchQuery},
		{"SELECT * FROM SpecObjAll WHERE ra BETWEEN 54 AND 115",
			BandSkyArea, SearchQuery},
		{"SELECT z FROM Photoz WHERE objid = 1237657855534432934",
			SinglePointSkyArea, RetrieveQuery},
		{"SELECT * FROM PhotoObjAll WHERE ra = 185 AND dec = 0.5",
			SinglePointSkyArea, SearchQuery},
		{"SELECT TOP 10 * FROM DBObjects",
			OtherSkyArea, ScanQuery},
		{"SELECT * FROM Photoz WHERE z < 0.1",
			OtherSkyArea, SearchQuery},
	}
	for _, c := range cases {
		area := mk(c.sql)
		if got := ClassifySkyArea(area); got != c.sky {
			t.Errorf("%q: sky = %v, want %v", c.sql, got, c.sky)
		}
		if got := ClassifyAccess(area); got != c.access {
			t.Errorf("%q: access = %v, want %v", c.sql, got, c.access)
		}
	}
}

func TestClassifyBatch(t *testing.T) {
	ex := extract.New(skyserver.Schema())
	var areas []*extract.AccessArea
	for _, sql := range []string{
		"SELECT * FROM PhotoObjAll WHERE ra BETWEEN 0 AND 10 AND dec BETWEEN 0 AND 10",
		"SELECT * FROM SpecObjAll WHERE ra > 100 AND ra < 200",
		"SELECT z FROM Photoz WHERE objid = 7",
	} {
		a, err := ex.ExtractSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		areas = append(areas, a)
	}
	counts := Classify(areas)
	if counts.Sky[RectangularSkyArea] != 1 || counts.Sky[BandSkyArea] != 1 || counts.Sky[SinglePointSkyArea] != 1 {
		t.Errorf("sky counts = %v", counts.Sky)
	}
	if counts.Access[RetrieveQuery] != 1 || counts.Access[SearchQuery] != 2 {
		t.Errorf("access counts = %v", counts.Access)
	}
}

func TestSessionizeGeneratedLog(t *testing.T) {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 2000, Seed: 3})
	recs := make([]Record, len(entries))
	total := 0
	for i, e := range entries {
		recs[i] = Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
		total++
	}
	sessions := Sessionize(recs, 1800)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	n := 0
	for _, s := range sessions {
		n += len(s.Records)
	}
	if n != total {
		t.Errorf("records in sessions = %d, want %d", n, total)
	}
}
