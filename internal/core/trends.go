package core

import (
	"sort"

	"repro/internal/qlog"
)

// WindowResult is the mining outcome of one time slice. Feeding each
// window's Result.Clusters in order to one traffic.Drift traces how the
// mined interests move between windows, under the rule the served /drift
// uses.
type WindowResult struct {
	Start, End int64 // logical seconds, [Start, End)
	Result     *Result
}

// MineWindows splits the log into fixed-duration windows by record time and
// mines each window independently with this Miner's configuration. Records
// must carry meaningful Time values.
func (m *Miner) MineWindows(recs []qlog.Record, windowSeconds int64) []WindowResult {
	if len(recs) == 0 || windowSeconds <= 0 {
		return nil
	}
	minT, maxT := recs[0].Time, recs[0].Time
	for _, r := range recs {
		if r.Time < minT {
			minT = r.Time
		}
		if r.Time > maxT {
			maxT = r.Time
		}
	}
	buckets := make(map[int64][]qlog.Record)
	for _, r := range recs {
		buckets[(r.Time-minT)/windowSeconds] = append(buckets[(r.Time-minT)/windowSeconds], r)
	}
	var keys []int64
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []WindowResult
	for _, k := range keys {
		out = append(out, WindowResult{
			Start:  minT + k*windowSeconds,
			End:    minT + (k+1)*windowSeconds,
			Result: m.MineRecords(buckets[k]),
		})
	}
	return out
}
