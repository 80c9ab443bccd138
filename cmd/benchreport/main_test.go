package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func runArgs(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// `-exp list` names exactly the selectable experiments, in run order.
func TestListNamesExperiments(t *testing.T) {
	code, out, _ := runArgs("-exp", "list")
	if code != 0 {
		t.Fatalf("-exp list exited %d", code)
	}
	var names []string
	for _, line := range strings.Split(out, "\n")[1:] {
		if fields := strings.Fields(line); len(fields) > 0 {
			names = append(names, fields[0])
		}
	}
	want := []string{
		"table1", "fig1a", "fig1b", "fig1c", "coverage", "olapclus", "olapclusraw",
		"efficiency", "requery", "ablation", "ablationsigma", "density", "scaling",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("-exp list names %v, want %v", names, want)
	}
}

func TestUnknownExperimentExits2(t *testing.T) {
	code, out, errOut := runArgs("-exp", "serveperf")
	if code != 2 {
		t.Fatalf("unknown experiment exited %d, want 2", code)
	}
	if out != "" || !strings.Contains(errOut, `unknown experiment "serveperf"`) {
		t.Fatalf("stdout %q, stderr %q", out, errOut)
	}
}
