package main

import (
	"bytes"
	"strings"
	"testing"
)

// Flag values no mine could use exit 2 before anything is mined; -mode
// keeps its exit 1; good values mine and print a report.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args    []string
		code    int
		stderr  string // substring; "" = empty stderr
		printed bool   // a report reached stdout
	}{
		{[]string{"-synthetic", "300"}, 0, "", true},
		{[]string{"-synthetic", "300", "-format", "csv"}, 0, "", true},
		{[]string{"-synthetic", "300", "-format", "xml"}, 2, `"xml"`, false},
		{[]string{"-synthetic", "300", "-mode", "paper"}, 1, `unknown -mode "paper"`, false},
		{[]string{"-format", "csv"}, 2, "need -log FILE or -synthetic N", false},
		{[]string{"-nosuchflag"}, 2, "flag provided but not defined", false},
		// DBSCAN at -eps is the one clusterer: there is no -alg or -autoeps.
		{[]string{"-synthetic", "300", "-alg", "optics"}, 2, "flag provided but not defined: -alg", false},
		{[]string{"-synthetic", "300", "-autoeps"}, 2, "flag provided but not defined: -autoeps", false},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := run(c.args, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if c.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("%v: stderr %q, want %q", c.args, stderr.String(), c.stderr)
		}
		if printed := stdout.Len() > 0; printed != c.printed {
			t.Errorf("%v: printed %v, want %v:\n%s", c.args, printed, c.printed, stdout.String())
		}
	}
}
