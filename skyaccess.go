// Package skyaccess is the public API of this repository: a library for
// mining user interests — access areas — from SQL query logs, reproducing
// "Identifying User Interests within the Data Space — a Case Study with
// SkyServer" (EDBT 2015).
//
// The pipeline: parse each logged statement, transform it to the paper's
// intermediate format and extract its access area (the part of the data
// space whose tuples could influence the query's result in some database
// state — independent of the actual content), cluster the areas with DBSCAN
// under an overlap-oriented distance, and report aggregated access areas
// with cardinality, user counts and area/object coverage.
//
// Quick start:
//
//	miner := skyaccess.NewMiner(skyaccess.Config{Schema: skyaccess.SkyServerSchema()})
//	result := miner.MineSQL([]string{
//		"SELECT * FROM SpecObjAll WHERE plate BETWEEN 296 AND 3200",
//		// ...
//	})
//	for _, c := range result.Clusters {
//		fmt.Println(c.Cardinality, c.Expr())
//	}
//
// The implementation lives in internal/ packages; this package re-exports
// the stable surface via type aliases so downstream users never import
// internal paths.
package skyaccess

import (
	"repro/internal/aggregate"
	"repro/internal/core"
	"repro/internal/distance"
	"repro/internal/extract"
	"repro/internal/interval"
	"repro/internal/memdb"
	"repro/internal/qlog"
	"repro/internal/schema"
	"repro/internal/skyserver"
	"repro/internal/traffic"
)

// Core pipeline types.
type (
	// Miner runs the full log-mining pipeline (parse → extract → cluster →
	// aggregate).
	Miner = core.Miner
	// Config parameterises a Miner; the zero value plus a Schema is a
	// sensible default.
	Config = core.Config
	// Result is a mining outcome: clusters, noise, coverage statistics.
	Result = core.Result
	// ClusterSummary is one aggregated access area (a Table-1 row).
	ClusterSummary = aggregate.Summary

	// AccessArea is the access area of a single query in intermediate
	// format (Definition 4 / Section 2.4).
	AccessArea = extract.AccessArea
	// Extractor maps parsed queries to access areas.
	Extractor = extract.Extractor

	// Schema describes relations, columns and domains.
	Schema = schema.Schema
	// Relation is one relation of a Schema.
	Relation = schema.Relation
	// Column is one column of a Relation.
	Column = schema.Column
	// AccessStats is the access(a)/content(a) registry of Section 5.3.
	AccessStats = schema.Stats

	// Record is one query-log line.
	Record = qlog.Record
	// PipelineStats carries extraction coverage and per-stage timings.
	PipelineStats = qlog.Stats
	// StreamMonitor notifies about new query shapes in a log stream.
	StreamMonitor = qlog.Monitor
	// StreamEvent is one stream-monitor notification.
	StreamEvent = qlog.Event

	// WindowResult is the mining outcome of one time slice.
	WindowResult = core.WindowResult
	// TrendEvent marks a cluster appearing/growing/shrinking/vanishing
	// between windows; its Epoch is the window index.
	TrendEvent = traffic.Event
	// Recommendation pairs a cluster with its distance to a user's own
	// activity (QueRIE-style orientation, Sections 3.2/6.3).
	Recommendation = core.Recommendation

	// Metric is the Section 5 distance function.
	Metric = distance.Metric
	// Interval is a one-dimensional range.
	Interval = interval.Interval
	// Box is an axis-aligned hyper-rectangle over named columns.
	Box = interval.Box

	// DB is the bundled in-memory relational engine (useful for the
	// re-query baseline and coverage statistics).
	DB = memdb.DB
)

// Distance modes (see DESIGN.md §2).
const (
	// ModeEndpoint is the corrected overlap metric (default).
	ModeEndpoint = distance.ModeEndpoint
	// ModePaperLiteral applies the Section 5.2 formulas exactly as printed.
	ModePaperLiteral = distance.ModePaperLiteral
)

// NewMiner builds a Miner.
func NewMiner(cfg Config) *Miner { return core.NewMiner(cfg) }

// Trends feeds each window's clusters, in order, to one drift detector —
// the rule the served /drift applies to epochs — and returns its events.
func Trends(windows []WindowResult) []TrendEvent {
	d := traffic.NewDrift()
	var out []TrendEvent
	for i, w := range windows {
		out = append(out, d.Observe("", int64(i), w.Result.Clusters)...)
	}
	return out
}

// NewExtractor builds an access-area extractor over a schema.
func NewExtractor(s *Schema) *Extractor { return extract.New(s) }

// NewSchema returns an empty schema.
func NewSchema() *Schema { return schema.New() }

// NewAccessStats returns an empty access(a) registry.
func NewAccessStats() *AccessStats { return schema.NewStats() }

// NewStreamMonitor returns a stream monitor delivering events to notify.
func NewStreamMonitor(notify func(StreamEvent)) *StreamMonitor {
	return qlog.NewMonitor(notify)
}

// SkyServerSchema returns the SDSS DR9 schema of the case study.
func SkyServerSchema() *Schema { return skyserver.Schema() }

// SkyServerDatabase builds the synthetic SkyServer database substrate with
// the given base row count and seed.
func SkyServerDatabase(rowsPerTable int, seed int64) *DB {
	return skyserver.BuildDatabase(skyserver.DataConfig{RowsPerTable: rowsPerTable, Seed: seed})
}

// SeedStatsFromDatabase seeds access(a)/content(a) from a database sample
// per Section 5.3.
func SeedStatsFromDatabase(db *DB, stats *AccessStats) {
	skyserver.SeedStats(db, stats)
}

// GenerateSkyServerLog produces a synthetic query log whose workload mix
// mirrors the paper's Table 1 (see internal/skyserver for knobs).
func GenerateSkyServerLog(queries int, seed int64) []Record {
	entries := skyserver.GenerateLog(skyserver.WorkloadConfig{Queries: queries, Seed: seed})
	recs := make([]Record, len(entries))
	for i, e := range entries {
		recs[i] = Record{Seq: e.Seq, Time: e.Time, User: e.User, SQL: e.SQL}
	}
	return recs
}
