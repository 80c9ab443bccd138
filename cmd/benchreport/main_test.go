package main

import (
	"bytes"
	"reflect"
	"regexp"
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
	descs := make(map[string][]string)
	for _, line := range strings.Split(out, "\n")[1:] {
		if fields := strings.Fields(line); len(fields) > 0 {
			names = append(names, fields[0])
			descs[fields[0]] = fields[1:]
		}
	}
	want := []string{
		"table1", "fig1a", "fig1b", "fig1c", "coverage", "olapclus", "olapclusraw",
		"efficiency", "requery", "ablation", "ablationsigma", "density", "scaling",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("-exp list names %v, want %v", names, want)
	}
	// Each paper experiment's line names its DESIGN.md §4 id, and no other
	// line claims one.
	eid := map[string]string{
		"table1": "E1", "fig1a": "E2", "fig1b": "E3", "fig1c": "E4", "coverage": "E5",
		"olapclus": "E6", "olapclusraw": "E7", "efficiency": "E8", "requery": "E9", "ablation": "E10",
	}
	isEID := regexp.MustCompile(`^E[0-9]+$`)
	for _, name := range names {
		var ids []string
		for _, word := range descs[name] {
			if isEID.MatchString(word) {
				ids = append(ids, word)
			}
		}
		var wantIDs []string
		if id, ok := eid[name]; ok {
			wantIDs = []string{id}
		}
		if !reflect.DeepEqual(ids, wantIDs) {
			t.Errorf("-exp list line for %s names ids %v, want %v: %q", name, ids, wantIDs, strings.Join(descs[name], " "))
		}
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
