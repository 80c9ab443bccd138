package interestcache

import (
	"testing"

	"repro/internal/interval"
)

// FuzzContainmentIndex drives the containment index with fuzz-derived region
// sets (boxes, categorical pins, mixed relation sets) and query shapes, and
// checks the indexed lookup against the brute-force oracle: scan every
// region, test containment directly, pick fewest rows then smallest ID. The
// index's grouping, primary-dimension pruning, and running-max skip must
// never change the answer.
func FuzzContainmentIndex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x80, 0x01, 0xff, 0x20, 0x33, 0x41, 0x00, 0x00, 0x17})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			b := data[pos]
			pos++
			return b
		}
		// Quarter-step grid keeps endpoints exact and collisions frequent.
		val := func() float64 { return float64(next()%64) / 4 }
		ivl := func() interval.Interval {
			lo, hi := val(), val()
			if lo > hi {
				lo, hi = hi, lo
			}
			return interval.Interval{Lo: lo, Hi: hi, LoOpen: next()%4 == 0, HiOpen: next()%4 == 0}
		}
		relSets := [][]string{{"T"}, {"S"}, {"T", "S"}}
		dims := []string{"T.a", "T.b", "S.c"}
		catVals := []string{"x", "y", "z"}

		nRegions := int(next()%8) + 1
		var regions []*Region
		for id := 1; id <= nRegions; id++ {
			r := &Region{
				ID:        id,
				Relations: relSets[int(next())%len(relSets)],
				Box:       interval.NewBox(),
				Rows:      int(next() % 16),
			}
			for i := int(next() % 3); i > 0; i-- {
				r.Box.Set(dims[int(next())%len(dims)], ivl())
			}
			if next()%3 == 0 {
				n := int(next()%3) + 1
				r.Categorical = map[string][]string{"S.w": catVals[:n]}
			}
			regions = append(regions, r)
		}
		idx := buildIndex(regions)

		for q := int(next()%4) + 1; q > 0; q-- {
			shape := &queryShape{
				relations: relSets[int(next())%len(relSets)],
				bounds:    map[string]interval.Set{},
				strs:      map[string][]string{},
			}
			for i := int(next() % 3); i > 0; i-- {
				set := interval.NewSet(ivl())
				if next()%3 == 0 {
					set = set.Union(interval.NewSet(ivl()))
				}
				if set.IsEmpty() {
					// A query constraining a column to nothing has an empty
					// access area; lookupArea filters those before lookup.
					continue
				}
				shape.bounds[dims[int(next())%len(dims)]] = set
			}
			if next()%2 == 0 {
				n := int(next()%3) + 1
				shape.strs["S.w"] = catVals[:n]
			}

			var want *Region
			for _, r := range regions {
				if !r.containsShape(shape) {
					continue
				}
				if want == nil || r.Rows < want.Rows || (r.Rows == want.Rows && r.ID < want.ID) {
					want = r
				}
			}
			got := idx.lookup(shape)
			switch {
			case want == nil && got != nil:
				t.Fatalf("index found region %d, oracle none (shape=%+v)", got.ID, shape)
			case want != nil && got == nil:
				t.Fatalf("index found nothing, oracle region %d (shape=%+v)", want.ID, shape)
			case want != nil && got.ID != want.ID:
				t.Fatalf("index picked %d, oracle %d (shape=%+v)", got.ID, want.ID, shape)
			}
		}
	})
}
