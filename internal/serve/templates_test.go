package serve

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/extract"
	"repro/internal/obs"
)

// A flood of alias-variant statements, each its own fingerprint, fills the
// server's template cache to TemplateCacheLimit and no further: every store
// past it is refused and counted, and every statement, whether its shape was
// stored, refused or rebound, resolves to the uncached path's outcome.
func TestTemplateFloodBounded(t *testing.T) {
	db := testDB()
	s, err := NewServer(Config{Miner: minerConfig(db)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cache := s.pipe.Cache
	if cache.Limit != TemplateCacheLimit {
		t.Fatalf("server template cache Limit %d, want %d", cache.Limit, TemplateCacheLimit)
	}
	refusals := func() float64 { return obs.Default().Snapshot()["skyaccess_extract_template_refusals_total"] }
	before := refusals()

	const n = 10000
	ex := &extract.Extractor{Schema: minerConfig(db).Schema}
	check := func(sql string) {
		got, _, _, _ := cache.Resolve(ex, sql, cache.Stmt(sql))
		want, _, _, _ := (*extract.TemplateCache)(nil).Resolve(ex, sql, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: cached outcome %+v, uncached %+v", sql, got, want)
		}
	}
	for i := 0; i < n; i++ {
		check(fmt.Sprintf("SELECT ra AS a%d FROM PhotoObjAll WHERE ra BETWEEN %d AND %d", i, i%360, i%360+5))
	}
	if got := cache.Len(); got > TemplateCacheLimit {
		t.Fatalf("template cache holds %d templates, Limit %d", got, TemplateCacheLimit)
	}
	if got, want := refusals()-before, float64(n-TemplateCacheLimit); got < want {
		t.Errorf("refusals counted %v, want at least %v", got, want)
	}
	// Both classes keep resolving: a stored shape rebinds (the first alias,
	// here with a crossed range) and a refused one takes the full path.
	for _, i := range []int{0, 1, n - 2, n - 1} {
		check(fmt.Sprintf("SELECT ra AS a%d FROM PhotoObjAll WHERE ra BETWEEN %d AND %d", i, 200, 100+i%7))
	}
}
