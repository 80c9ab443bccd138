package extract

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/schema"
)

// requireSameOutcome asserts two outcomes agree on everything a caller reads.
func requireSameOutcome(t *testing.T, label string, want, got *Outcome) {
	t.Helper()
	if want.ParseFailCat != got.ParseFailCat || (want.ExtractErr == nil) != (got.ExtractErr == nil) {
		t.Fatalf("%s: outcome %+v, want %+v", label, got, want)
	}
	if want.ExtractErr != nil && want.ExtractErr.Error() != got.ExtractErr.Error() {
		t.Fatalf("%s: error %q, want %q", label, got.ExtractErr, want.ExtractErr)
	}
	if (want.Area == nil) != (got.Area == nil) {
		t.Fatalf("%s: area %v, want %v", label, got.Area, want.Area)
	}
	if want.Area == nil {
		return
	}
	a, b := want.Area, got.Area
	if got.Key != b.Key() || want.Key != got.Key || a.Exact != b.Exact || a.Truncated != b.Truncated ||
		!reflect.DeepEqual(a.Relations, b.Relations) || !reflect.DeepEqual(a.Referenced, b.Referenced) {
		t.Fatalf("%s: area %q (key %q) exact=%v trunc=%v rels=%v ref=%v\n  want %q exact=%v trunc=%v rels=%v ref=%v",
			label, b.Key(), got.Key, b.Exact, b.Truncated, b.Relations, b.Referenced,
			a.Key(), a.Exact, a.Truncated, a.Relations, a.Referenced)
	}
}

// Every rung of the extraction ladder gives the outcome the uncached path
// gives for the same text, and observes the same constants into the
// caller's registry: a memo hit, a template rebind, a rebind refused by a
// guard or an Uncacheable shape (which falls back to the full path), the
// full path itself, and the nil cache.
func TestResolveRungsAgree(t *testing.T) {
	cases := []struct {
		name      string
		warm      []string // resolved first, through the same cache
		sql       string
		hit       bool // served by the memo or a rebind
		templates int  // templates stored once the case has run
	}{
		{"full path", nil, "SELECT * FROM T WHERE u > 5 AND v < 3", false, 1},
		{"memo hit", []string{"SELECT * FROM T WHERE u > 5"}, "SELECT * FROM T WHERE u > 5", true, 1},
		{"template rebind", []string{"SELECT * FROM T WHERE u > 5"}, "SELECT * FROM T WHERE u > 7.5", true, 1},
		{"refused rebind falls back",
			[]string{"SELECT * FROM SpecObjAll WHERE class LIKE 'GALAXY'"},
			"SELECT * FROM SpecObjAll WHERE class LIKE 'GAL%'", false, 1},
		{"uncacheable shape falls back", []string{"SELECT * FROM T WHERE u = 1 + 2"}, "SELECT * FROM T WHERE u = 3 + 4", false, 1},
		{"parse failure from template", []string{"SELECT FROM T WHERE u > 1"}, "SELECT FROM T WHERE u > 2", true, 1},
		{"non-select", nil, "DROP TABLE T", false, 1},
		{"bad number bypasses templates", nil, "SELECT * FROM T WHERE u > 1e999", false, 0},
	}
	snapshot := func(st *schema.Stats) string {
		b, err := json.Marshal(st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			refEx := &Extractor{Schema: testSchema(), Stats: schema.NewStats()}
			ex := &Extractor{Schema: testSchema(), Stats: schema.NewStats()}
			var nilCache *TemplateCache
			cache := &TemplateCache{}
			for _, w := range c.warm {
				nilCache.Resolve(refEx, w, nil)
				cache.Resolve(ex, w, cache.Stmt(w))
			}
			want, _, _, refHit := nilCache.Resolve(refEx, c.sql, nil)
			stmt := cache.Stmt(c.sql)
			got, _, _, hit := cache.Resolve(ex, c.sql, stmt)
			if refHit || hit != c.hit {
				t.Fatalf("hit = %v (nil cache %v), want %v", hit, refHit, c.hit)
			}
			requireSameOutcome(t, c.name, want, got)
			if stmt.Outcome() != got {
				t.Fatal("the outcome was not memoised on the text's entry")
			}
			if cache.Len() != c.templates {
				t.Fatalf("%d templates stored, want %d", cache.Len(), c.templates)
			}
			if a, b := snapshot(refEx.Stats), snapshot(ex.Stats); a != b {
				t.Fatalf("registries differ:\n  nil cache %s\n  ladder    %s", a, b)
			}
		})
	}
}
