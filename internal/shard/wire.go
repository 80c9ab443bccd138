// Package shard scales the serve layer horizontally: a coordinator routes
// ingested records to N shard nodes by relation-set key — the same key
// core.partitionItems splits the distance matrix on — so each shard mines a
// disjoint slice of the area space with the unmodified core.Incremental
// miner, and the coordinator merges the per-shard results. With eps below
// the 1/(maxTables+1) partitioning threshold no cluster crosses a relation
// set, so the merge is what one batch miner over the union would report
// given the same access(a) observations. Each shard keeps a private stats
// registry, so that last condition is shown on the synthetic log (the
// byte-identity tests), not proven in general (DESIGN §14).
//
// There is one topology: every shard is a skyserved -role shard process
// reached over HTTP (HTTPNode), and the coordinator is a -role coordinator.
package shard

import (
	"strconv"

	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/qlog"
)

// WireInterval is one interval endpoint pair in transport form. Lo/Hi are
// strconv 'g'-formatted so ±Inf (unbounded endpoints, which encoding/json
// refuses as float64) and every finite float round-trip exactly.
type WireInterval struct {
	Lo     string `json:"lo"`
	Hi     string `json:"hi"`
	LoOpen bool   `json:"lo_open,omitempty"`
	HiOpen bool   `json:"hi_open,omitempty"`
}

func encodeInterval(iv interval.Interval) WireInterval {
	return WireInterval{
		Lo:     strconv.FormatFloat(iv.Lo, 'g', -1, 64),
		Hi:     strconv.FormatFloat(iv.Hi, 'g', -1, 64),
		LoOpen: iv.LoOpen,
		HiOpen: iv.HiOpen,
	}
}

func decodeInterval(w WireInterval) interval.Interval {
	lo, _ := strconv.ParseFloat(w.Lo, 64)
	hi, _ := strconv.ParseFloat(w.Hi, 64)
	return interval.Interval{Lo: lo, Hi: hi, LoOpen: w.LoOpen, HiOpen: w.HiOpen}
}

// WireSummary mirrors aggregate.Summary with the Box flattened to a
// dimension→interval map (Box's internals are unexported).
type WireSummary struct {
	ID              int                     `json:"id"`
	Cardinality     int                     `json:"cardinality"`
	UserCount       int                     `json:"user_count"`
	Relations       []string                `json:"relations,omitempty"`
	Box             map[string]WireInterval `json:"box,omitempty"`
	Categorical     map[string][]string     `json:"categorical,omitempty"`
	JoinPreds       []string                `json:"join_preds,omitempty"`
	Representatives []string                `json:"representatives,omitempty"`
	AreaCoverage    float64                 `json:"area_coverage,omitempty"`
	ObjectCoverage  float64                 `json:"object_coverage,omitempty"`
}

// WireResult is core.Result in transport form, the body a shard node serves
// on GET /shard/result and the coordinator merges.
type WireResult struct {
	Generation         int64         `json:"generation"`
	Clusters           []WireSummary `json:"clusters,omitempty"`
	DistinctAreas      int           `json:"distinct_areas"`
	ClusteredAreas     int           `json:"clustered_areas"`
	NoiseQueries       int           `json:"noise_queries"`
	ContradictoryAreas int           `json:"contradictory_areas"`
	ChosenEps          float64       `json:"chosen_eps"`
	DistanceEvals      int64         `json:"distance_evals"`
	DistanceCacheHits  int64         `json:"distance_cache_hits"`
	PipelineStats      *qlog.Stats   `json:"pipeline_stats,omitempty"`
}

// EncodeResult converts a miner result for transport. Nil in, nil out.
func EncodeResult(r *core.Result, gen int64) *WireResult {
	if r == nil {
		return nil
	}
	w := &WireResult{
		Generation:         gen,
		DistinctAreas:      r.DistinctAreas,
		ClusteredAreas:     r.ClusteredAreas,
		NoiseQueries:       r.NoiseQueries,
		ContradictoryAreas: r.ContradictoryAreas,
		ChosenEps:          r.ChosenEps,
		DistanceEvals:      r.DistanceEvals,
		DistanceCacheHits:  r.DistanceCacheHits,
		PipelineStats:      r.PipelineStats,
	}
	for _, c := range r.Clusters {
		ws := WireSummary{
			ID:              c.ID,
			Cardinality:     c.Cardinality,
			UserCount:       c.UserCount,
			Relations:       c.Relations,
			Categorical:     c.Categorical,
			JoinPreds:       c.JoinPreds,
			Representatives: c.Representatives,
			AreaCoverage:    c.AreaCoverage,
			ObjectCoverage:  c.ObjectCoverage,
		}
		if c.Box != nil {
			ws.Box = make(map[string]WireInterval, c.Box.Len())
			for _, dim := range c.Box.Dims() {
				ws.Box[dim] = encodeInterval(c.Box.Get(dim))
			}
		}
		w.Clusters = append(w.Clusters, ws)
	}
	return w
}

// DecodeResult converts a transport result back into the miner's shape.
func DecodeResult(w *WireResult) *core.Result {
	if w == nil {
		return nil
	}
	r := &core.Result{
		DistinctAreas:      w.DistinctAreas,
		ClusteredAreas:     w.ClusteredAreas,
		NoiseQueries:       w.NoiseQueries,
		ContradictoryAreas: w.ContradictoryAreas,
		ChosenEps:          w.ChosenEps,
		DistanceEvals:      w.DistanceEvals,
		DistanceCacheHits:  w.DistanceCacheHits,
		PipelineStats:      w.PipelineStats,
	}
	for _, ws := range w.Clusters {
		s := &aggregate.Summary{
			ID:              ws.ID,
			Cardinality:     ws.Cardinality,
			UserCount:       ws.UserCount,
			Relations:       ws.Relations,
			Categorical:     ws.Categorical,
			JoinPreds:       ws.JoinPreds,
			Representatives: ws.Representatives,
			AreaCoverage:    ws.AreaCoverage,
			ObjectCoverage:  ws.ObjectCoverage,
			Box:             interval.NewBox(),
		}
		for dim, iv := range ws.Box {
			s.Box.Set(dim, decodeInterval(iv))
		}
		r.Clusters = append(r.Clusters, s)
	}
	return r
}
