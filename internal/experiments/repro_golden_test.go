package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "regenerate the paper-reproduction golden under testdata/")

// reproGoldenPath holds the rendered paper reproduction at -scale 5000,
// seed 42. Regenerate it with
//
//	go test ./internal/experiments/ -run TestReproGolden -update
//
// and review the diff: every change to it is a change to a reproduced
// table or figure.
const reproGoldenPath = "testdata/repro_5000_seed42.golden"

// TestReproGolden renders every deterministic paper experiment (the ones
// that print no wall-clock figures) in benchreport's layout and requires
// the result to equal the committed golden byte for byte.
func TestReproGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders ten experiments at 5k scale")
	}
	env := NewEnv(5000, 42)
	exps := []struct {
		name string
		fn   func() string
	}{
		{"table1", func() string { return env.RunTable1().Report }},
		{"fig1a", func() string { return env.RunFigure1('a').Report }},
		{"fig1b", func() string { return env.RunFigure1('b').Report }},
		{"fig1c", func() string { return env.RunFigure1('c').Report }},
		{"coverage", func() string { return env.RunCoverage().Report }},
		{"olapclus", func() string { return env.RunOLAPClusExact().Report }},
		{"olapclusraw", func() string { return env.RunOLAPClusRaw().Report }},
		{"ablation", func() string { return env.RunAblation().Report }},
		{"ablationsigma", func() string { return env.RunAblationSigma().Report }},
		{"density", func() string { return env.RunDensity().Report }},
	}
	var buf bytes.Buffer
	for _, e := range exps {
		buf.WriteString(strings.Repeat("=", 100) + "\n")
		buf.WriteString("exp " + e.name + "\n")
		buf.WriteString(e.fn())
		buf.WriteString("\n")
	}
	got := buf.Bytes()

	if *update {
		if err := os.MkdirAll(filepath.Dir(reproGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reproGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", reproGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(reproGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("reproduction differs from %s at line %d:\n got: %q\nwant: %q\n(run with -update to regenerate after reviewing)", reproGoldenPath, i+1, g, w)
		}
	}
}
