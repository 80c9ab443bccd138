package extract

import (
	"testing"

	"repro/internal/skyserver"
	"repro/internal/sqlparser"
)

func parseSel(t *testing.T, src string) *sqlparser.SelectStatement {
	t.Helper()
	st, err := sqlparser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	sel, ok := st.(*sqlparser.SelectStatement)
	if !ok {
		t.Fatalf("parse %q: got %T", src, st)
	}
	return sel
}

// Statement shapes whose constraint structure is decided by literal values
// must come back Uncacheable with the poisoning site's reason, so the whole
// fingerprint class takes the slow path.
func TestTemplateUncacheableShapes(t *testing.T) {
	cases := []struct {
		src    string
		reason string
	}{
		{"SELECT * FROM T WHERE 1 = 1", "constant-comparison"},
		{"SELECT * FROM T WHERE 1 = 2 AND u > 5", "constant-comparison"},
		{"SELECT * FROM T WHERE u = 1 + 2", "folded-arithmetic"},
		{"SELECT * FROM T WHERE u = 10 / 0", "folded-arithmetic"},
		{"SELECT u, SUM(v) FROM T GROUP BY u HAVING SUM(v) > 10", "having-aggregate"},
	}
	ex := New(testSchema())
	for _, c := range cases {
		_, _, tmpl, err := ex.extractTemplate(parseSel(t, c.src))
		if err != nil {
			t.Errorf("%q: unexpected error %v", c.src, err)
			continue
		}
		if !tmpl.Uncacheable || tmpl.Reason != c.reason {
			t.Errorf("%q: Uncacheable=%v Reason=%q, want Uncacheable with %q",
				c.src, tmpl.Uncacheable, tmpl.Reason, c.reason)
		}
		if _, _, ok := tmpl.Rebind(ex, nil); ok {
			t.Errorf("%q: Rebind succeeded on an uncacheable template", c.src)
		}
	}
}

// cacheableTemplate extracts src and fails the test unless it produced a
// rebindable template.
func cacheableTemplate(t *testing.T, ex *Extractor, src string) (*AccessArea, *AreaTemplate) {
	t.Helper()
	area, _, tmpl, err := ex.extractTemplate(parseSel(t, src))
	if err != nil {
		t.Fatalf("extract %q: %v", src, err)
	}
	if tmpl.Uncacheable {
		t.Fatalf("%q: unexpectedly uncacheable (%s)", src, tmpl.Reason)
	}
	return area, tmpl
}

// rebindFor fingerprints src and rebinds tmpl with its literals, requiring
// identical fingerprints first so the rebind is meaningful.
func rebindFor(t *testing.T, ex *Extractor, tmpl *AreaTemplate, tmplSrc, src string) (*AccessArea, bool) {
	t.Helper()
	fp1, _, err := sqlparser.Fingerprint(tmplSrc)
	if err != nil {
		t.Fatal(err)
	}
	fp2, lits, err := sqlparser.Fingerprint(src)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("not the same template:\n  %q\n  %q", tmplSrc, src)
	}
	area, _, ok := tmpl.Rebind(ex, lits)
	return area, ok
}

// requireSameArea compares a rebound area against a direct slow-path
// extraction of the same statement.
func requireSameArea(t *testing.T, ex *Extractor, got *AccessArea, src string) {
	t.Helper()
	want, _, err := ex.ExtractWithTimings(parseSel(t, src))
	if err != nil {
		t.Fatalf("direct extract %q: %v", src, err)
	}
	if got.Key() != want.Key() {
		t.Errorf("rebound area differs for %q:\n got %q\nwant %q", src, got.Key(), want.Key())
	}
	if got.Exact != want.Exact || got.Truncated != want.Truncated {
		t.Errorf("rebound flags differ for %q: got exact=%v trunc=%v, want exact=%v trunc=%v",
			src, got.Exact, got.Truncated, want.Exact, want.Truncated)
	}
	if len(got.Referenced) != len(want.Referenced) {
		t.Fatalf("referenced differ for %q: %v vs %v", src, got.Referenced, want.Referenced)
	}
	for i := range got.Referenced {
		if got.Referenced[i] != want.Referenced[i] {
			t.Fatalf("referenced differ for %q: %v vs %v", src, got.Referenced, want.Referenced)
		}
	}
}

// Tier A: distinct single-use columns keep the final CNF shape invariant, so
// the template substitutes into the consolidated CNF directly.
func TestTemplateRebindTierA(t *testing.T) {
	ex := New(testSchema())
	base := "SELECT * FROM T WHERE u > 1 AND v < 5"
	_, tmpl := cacheableTemplate(t, ex, base)
	if !tmpl.fast {
		t.Errorf("%q: expected a tier A (fast) template", base)
	}
	for _, src := range []string{
		"SELECT * FROM T WHERE u > 100 AND v < 200",
		"SELECT * FROM T WHERE u > 0.5 AND v < 1e3",
	} {
		area, ok := rebindFor(t, ex, tmpl, base, src)
		if !ok {
			t.Fatalf("rebind refused for %q", src)
		}
		requireSameArea(t, ex, area, src)
	}
}

// Tier B: BETWEEN puts two slotted bounds on one column, so consolidation
// could merge or contradict them differently for other values — the template
// must re-run CNF conversion and consolidation, and still land bit-identical,
// including on rebinds that cross into contradiction (empty area).
func TestTemplateRebindTierB(t *testing.T) {
	ex := New(testSchema())
	base := "SELECT * FROM T WHERE u BETWEEN 1 AND 8"
	_, tmpl := cacheableTemplate(t, ex, base)
	if tmpl.fast {
		t.Errorf("%q: two slotted bounds on one column must not be tier A", base)
	}
	for _, src := range []string{
		"SELECT * FROM T WHERE u BETWEEN 3 AND 4",
		"SELECT * FROM T WHERE u BETWEEN 8 AND 1", // contradiction: empty area
	} {
		area, ok := rebindFor(t, ex, tmpl, base, src)
		if !ok {
			t.Fatalf("rebind refused for %q", src)
		}
		requireSameArea(t, ex, area, src)
	}
}

// String literals rebind through their slots like numbers do.
func TestTemplateRebindString(t *testing.T) {
	ex := New(testSchema())
	base := "SELECT * FROM SpecObjAll WHERE class = 'GALAXY' AND plate > 100"
	_, tmpl := cacheableTemplate(t, ex, base)
	src := "SELECT * FROM SpecObjAll WHERE class = 'QSO' AND plate > 5"
	area, ok := rebindFor(t, ex, tmpl, base, src)
	if !ok {
		t.Fatalf("rebind refused for %q", src)
	}
	requireSameArea(t, ex, area, src)
}

// Negated literals: the parser folds unary minus into the literal, recording
// the fold depth; a rebind must reapply the sign to the record's (unsigned)
// literal value.
func TestTemplateRebindNegatedLiteral(t *testing.T) {
	ex := New(testSchema())
	base := "SELECT * FROM PhotoObjAll WHERE dec > -35.5"
	_, tmpl := cacheableTemplate(t, ex, base)
	src := "SELECT * FROM PhotoObjAll WHERE dec > -1.25"
	area, ok := rebindFor(t, ex, tmpl, base, src)
	if !ok {
		t.Fatalf("rebind refused for %q", src)
	}
	requireSameArea(t, ex, area, src)
}

// A LIKE pattern's wildcard-ness decides between an equality predicate and
// the TRUE approximation, so it is a per-record guard: same template, other
// wildcard-ness, must fall back to the slow path.
func TestTemplateLikeGuard(t *testing.T) {
	ex := New(testSchema())
	base := "SELECT * FROM SpecObjAll WHERE class LIKE 'GALAXY'"
	_, tmpl := cacheableTemplate(t, ex, base)
	if len(tmpl.guards) != 1 || tmpl.guards[0].Wildcard {
		t.Fatalf("guards = %+v, want one wildcard-free guard", tmpl.guards)
	}

	// Same wildcard-ness: rebind succeeds and matches direct extraction.
	same := "SELECT * FROM SpecObjAll WHERE class LIKE 'QSO'"
	area, ok := rebindFor(t, ex, tmpl, base, same)
	if !ok {
		t.Fatalf("rebind refused for %q", same)
	}
	requireSameArea(t, ex, area, same)

	// Wildcard pattern under the same fingerprint: guard must refuse.
	diff := "SELECT * FROM SpecObjAll WHERE class LIKE 'GAL%'"
	if _, ok := rebindFor(t, ex, tmpl, base, diff); ok {
		t.Fatalf("rebind accepted %q despite wildcard-ness change", diff)
	}

	// And the reverse: a template built from a wildcard pattern refuses a
	// wildcard-free rebind.
	wildBase := "SELECT * FROM SpecObjAll WHERE class LIKE 'GAL%' AND plate > 1"
	_, wildTmpl := cacheableTemplate(t, ex, wildBase)
	if _, ok := rebindFor(t, ex, wildTmpl, wildBase, "SELECT * FROM SpecObjAll WHERE class LIKE 'QSO' AND plate > 2"); ok {
		t.Fatal("rebind accepted a wildcard-free pattern on a wildcard template")
	}
}

// The end-to-end soundness property behind the cache: over a real workload,
// grouping statements by fingerprint, building one template per class, and
// rebinding every other member must reproduce the slow path bit-identically
// whenever the rebind is accepted.
func TestTemplateRebindMatchesSlowPathOnWorkload(t *testing.T) {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: 2000, Seed: 7})
	ex := New(skyserver.Schema())
	type class struct {
		tmpl *AreaTemplate
	}
	classes := map[uint64]*class{}
	rebound, refused := 0, 0
	for _, e := range entries {
		fp, lits, err := sqlparser.Fingerprint(e.SQL)
		if err != nil {
			continue
		}
		bad := false
		for _, l := range lits {
			bad = bad || l.BadNum
		}
		if bad {
			continue
		}
		st, err := sqlparser.Parse(e.SQL)
		if err != nil {
			continue
		}
		sel, ok := st.(*sqlparser.SelectStatement)
		if !ok {
			continue
		}
		c := classes[fp]
		if c == nil {
			_, _, tmpl, _ := ex.extractTemplate(sel)
			classes[fp] = &class{tmpl: tmpl}
			continue
		}
		if c.tmpl == nil || c.tmpl.Uncacheable || c.tmpl.ExtractErr != nil {
			continue
		}
		got, _, ok := c.tmpl.Rebind(ex, lits)
		if !ok {
			refused++
			continue
		}
		rebound++
		requireSameArea(t, ex, got, e.SQL)
	}
	if rebound < 500 {
		t.Errorf("only %d rebinds exercised (refused %d) — workload grouping broken?", rebound, refused)
	}
}
