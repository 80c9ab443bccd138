package core

import "repro/internal/obs"

// Epoch-phase instruments for the incremental miner. One Recluster is one
// "epoch" span; its phases — item snapshot, profile compilation, the
// per-partition clustering loop, and result finalisation — get their own
// histograms so a slow epoch attributes its time on /metrics?format=prom.
var (
	epochStage         = obs.NewStage("core_epoch")
	epochSnapshotStage = obs.NewStage("core_epoch_snapshot")
	epochProfilesStage = obs.NewStage("core_epoch_profiles")
	epochClusterStage  = obs.NewStage("core_epoch_cluster")
	epochFinalizeStage = obs.NewStage("core_epoch_finalize")

	epochsTotal = obs.NewCounter("skyaccess_core_epochs_total",
		"incremental recluster epochs run")
	profilesRecompiled = obs.NewCounter("skyaccess_core_profiles_recompiled_total",
		"substrate profiles recompiled because a column they read moved in access(a)")
	graphDirtySlots = obs.NewCounter("skyaccess_core_graph_dirty_slots_total",
		"new or changed substrate slots whose eps-neighbour list was rescanned")
	graphRebuilds = obs.NewCounter("skyaccess_core_graph_rebuilds_total",
		"eps-neighbour graph rebuilds (registry restore, eps change or partition-rule flip)")
)
