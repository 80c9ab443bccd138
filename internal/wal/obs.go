package wal

import "repro/internal/obs"

// Stage spans and counters for the WAL, registered on the default obs
// registry (idempotent, shared with the serving layer's /metrics).
var (
	appendStage  = obs.NewStage("wal_append")
	fsyncStage   = obs.NewStage("wal_fsync")
	replayStage  = obs.NewStage("wal_replay")
	compactStage = obs.NewStage("wal_compact")

	appendTotal     = obs.NewCounter("wal_appends_total", "records appended to the WAL")
	fsyncTotal      = obs.NewCounter("wal_fsyncs_total", "fsync calls issued by the WAL writer")
	replayTotal     = obs.NewCounter("wal_replayed_total", "records replayed from the WAL on recovery")
	replayTruncated = obs.NewCounter("wal_torn_tails_total", "torn tails truncated during WAL recovery")
	segmentsSealed  = obs.NewCounter("wal_segments_sealed_total", "segments sealed by rotation")
	segmentsSkipped = obs.NewCounter("wal_segments_skipped_total", "segments skipped by the index during windowed reads")
	compactionsRun  = obs.NewCounter("wal_compactions_total", "cold segments compacted")
	compactDropped  = obs.NewCounter("wal_compact_dropped_total", "parse-failed records dropped by compaction")
	compactDeduped  = obs.NewCounter("wal_compact_deduped_total", "duplicate records collapsed into groups by compaction")
	dictDefs        = obs.NewCounter("wal_dict_defs_total", "appended records written as statement-table defs (text stored, next id taken)")
	dictRefs        = obs.NewCounter("wal_dict_refs_total", "appended records written as statement-table refs (varint id in place of text and fingerprint)")
	bytesWritten    = obs.NewCounter("wal_bytes_written_total", "bytes the WAL writer appended to segments (entries, footers, trailers)")
)
