// The metric name registry: every metric the system exposes, in one place.
//
// Names follow the Prometheus convention — `dice_` prefix, `_total` suffix
// for monotonic counters, a unit suffix (`_ms`) for histograms. Components
// register their handles through obs::MetricsRegistry::global() using
// these constants only; a string literal at an instrumentation site is a
// review error. tools/check_docs.sh enforces a two-way gate between this
// header and docs/OBSERVABILITY.md: every name here must be documented,
// and every documented name must exist here.
#pragma once

#include <string_view>

namespace dice::obs::names {

// --- explore::ExplorePool ---------------------------------------------------
inline constexpr std::string_view kPoolBatches = "dice_pool_batches_total";
inline constexpr std::string_view kPoolChildBatches = "dice_pool_child_batches_total";
inline constexpr std::string_view kPoolTasks = "dice_pool_tasks_total";
inline constexpr std::string_view kPoolChildTasks = "dice_pool_child_tasks_total";
inline constexpr std::string_view kPoolSteals = "dice_pool_steals_total";
inline constexpr std::string_view kPoolChildSteals = "dice_pool_child_steals_total";
inline constexpr std::string_view kPoolHelped = "dice_pool_helped_total";
inline constexpr std::string_view kPoolDrained = "dice_pool_drained_total";

// --- explore::CloneArena ----------------------------------------------------
inline constexpr std::string_view kArenaAcquires = "dice_arena_acquires_total";
inline constexpr std::string_view kArenaReuses = "dice_arena_reuses_total";
inline constexpr std::string_view kArenaRebuilds = "dice_arena_rebuilds_total";

// --- explore::SolverCache ---------------------------------------------------
inline constexpr std::string_view kSolverCacheHits = "dice_solver_cache_hits_total";
inline constexpr std::string_view kSolverCacheMisses = "dice_solver_cache_misses_total";
inline constexpr std::string_view kSolverCacheStores = "dice_solver_cache_stores_total";

// --- core::ConcolicStrategy (concolic::Solver work, per batch) -------------
inline constexpr std::string_view kSolverQueries = "dice_solver_queries_total";
inline constexpr std::string_view kSolverEvaluations = "dice_solver_evaluations_total";

// --- explore::LiveStateCache ------------------------------------------------
inline constexpr std::string_view kLiveCacheHits = "dice_live_cache_hits_total";
inline constexpr std::string_view kLiveCacheMisses = "dice_live_cache_misses_total";
inline constexpr std::string_view kLiveCacheUncacheable =
    "dice_live_cache_uncacheable_total";
inline constexpr std::string_view kLiveCacheEvictions =
    "dice_live_cache_evictions_total";

// --- snapshot / checkpoint pipeline ----------------------------------------
inline constexpr std::string_view kCheckpointDecodes = "dice_checkpoint_decodes_total";
inline constexpr std::string_view kSnapshots = "dice_snapshots_total";
inline constexpr std::string_view kSnapshotDeltaNodes =
    "dice_snapshot_delta_nodes_total";
inline constexpr std::string_view kSnapshotBaselineNodes =
    "dice_snapshot_baseline_nodes_total";
inline constexpr std::string_view kRibDetaches = "dice_rib_detaches_total";

// --- core::Orchestrator / explore::ScenarioMatrix ---------------------------
inline constexpr std::string_view kEpisodes = "dice_episodes_total";
inline constexpr std::string_view kClones = "dice_clones_total";
inline constexpr std::string_view kClonesReused = "dice_clones_reused_total";
inline constexpr std::string_view kClonesEarlyExit = "dice_clones_early_exit_total";
inline constexpr std::string_view kFaults = "dice_faults_total";
inline constexpr std::string_view kCheckVerdictsReused = "dice_check_verdicts_reused_total";
inline constexpr std::string_view kCellsCompleted = "dice_cells_completed_total";

// --- heterogeneous federation (bgp2 engine + differential checks) -----------
inline constexpr std::string_view kFsmDecodes = "dice_fsm_decodes_total";
inline constexpr std::string_view kFsmApplies = "dice_fsm_applies_total";
inline constexpr std::string_view kDifferentialChecks =
    "dice_differential_checks_total";
inline constexpr std::string_view kDifferentialDivergence =
    "dice_differential_divergence_total";

// --- svc::SoakService / svc::ArtifactStore ----------------------------------
inline constexpr std::string_view kSvcRounds = "dice_svc_rounds_total";
inline constexpr std::string_view kSvcWarmStarts = "dice_svc_warm_starts_total";

// --- obs itself -------------------------------------------------------------
inline constexpr std::string_view kTraceDropped = "dice_trace_events_dropped_total";

// --- gauges -----------------------------------------------------------------
inline constexpr std::string_view kCampaignsRunning = "dice_campaigns_running";

// --- latency histograms (milliseconds) --------------------------------------
inline constexpr std::string_view kCloneMs = "dice_clone_ms";
inline constexpr std::string_view kEpisodeMs = "dice_episode_ms";
inline constexpr std::string_view kBootstrapMs = "dice_bootstrap_ms";
inline constexpr std::string_view kSnapshotMs = "dice_snapshot_ms";
inline constexpr std::string_view kSnapshotEncodeMs = "dice_snapshot_encode_ms";
inline constexpr std::string_view kSnapshotDecodeMs = "dice_snapshot_decode_ms";
inline constexpr std::string_view kSvcStoreSaveMs = "dice_svc_store_save_ms";
inline constexpr std::string_view kSvcStoreLoadMs = "dice_svc_store_load_ms";

}  // namespace dice::obs::names
