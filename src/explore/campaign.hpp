// explore::Campaign — the streaming, cancellable front door of the
// exploration stack.
//
// The paper runs DiCE as a continuous online service beside the live
// system, but the batch-shaped surface underneath (Orchestrator +
// ScenarioMatrix + ExplorePool, with knobs smeared across DiceOptions and
// MatrixOptions) made callers wire the layers by hand and wait for every
// cell before seeing a single fault. Campaign is one object with one verb:
//
//   auto options = CampaignOptions::builder()
//                      .strategies({StrategyKind::kGrammar})
//                      .parallelism(8)
//                      .time_box(std::chrono::minutes(10))
//                      .build();            // validated; Result<CampaignOptions>
//   Campaign campaign(default_bench_scenarios(), options.take());
//   CampaignResult partial = campaign.run(&observer, source.token());
//
// - CampaignOptions layers the knob sprawl into coherent groups (Budgets,
//   Caching, Parallelism, Determinism) and validates at build() time.
// - A CampaignObserver streams every completed cell's faults in canonical
//   order while the run is in flight (control.hpp).
// - A StopToken (or the options deadline) cancels cooperatively: polled
//   between cells, episodes and clones — never mid-clone — so a cancelled
//   run returns a well-formed partial CampaignResult whose completed cells
//   carry fault sets byte-identical to an uncancelled run's, at any worker
//   count.
//
// Driving Orchestrator directly remains supported for single-system
// harnesses. See docs/ARCHITECTURE.md for the layer tour and
// docs/TUNING.md for every knob.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "explore/control.hpp"
#include "explore/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/result.hpp"

namespace dice::explore {

/// All exploration knobs, grouped by what they govern. Aggregate-initialize
/// freely or go through CampaignOptions::builder() for validation.
struct CampaignOptions {
  /// How much work a run does (per cell, per episode, per clone).
  struct Budgets {
    std::size_t episodes_per_cell = 1;
    std::size_t inputs_per_episode = 32;
    std::size_t bootstrap_events = 500'000;
    std::size_t clone_event_budget = 200'000;
    bool operator==(const Budgets&) const = default;
  };
  /// What is reused across cells and runs.
  struct Caching {
    bool live_state_cache = true;
    /// External bootstrap cache shared across campaigns; nullptr = the
    /// campaign owns one for its lifetime (repeat run() soaks still hit).
    LiveStateCache* live_cache = nullptr;
    /// LRU bound for the campaign-OWNED cache. An external `live_cache`
    /// keeps the bound it was constructed with; this knob does not rebind
    /// it.
    std::size_t live_cache_max_entries = LiveStateCache::kDefaultMaxEntries;
    /// Proven-UNSAT solver keys pre-seeded into every solver cache each
    /// run() creates (MatrixOptions::unsat_seed) — the svc::ArtifactStore
    /// warm-start path. Sound and byte-stable: a seeded hit skips solving
    /// with the exact verdict a fresh solve would reach; no SAT model is
    /// ever replayed. Must outlive the campaign's run() calls; nullptr =
    /// no seeding.
    const std::vector<std::uint64_t>* unsat_seed = nullptr;
    bool operator==(const Caching&) const = default;
  };
  /// Where the work runs. `workers` is the ONE global knob: a single
  /// worker budget that both layers — matrix cells and their episodes'
  /// clone batches — draw from, so there is no way to oversubscribe by
  /// sizing two layers independently.
  struct Parallelism {
    std::size_t workers = 1;      ///< global worker budget (cells + clones)
    /// External pool shared across campaigns (arena reuse); overrides
    /// `workers`. nullptr = the campaign owns a pool for its lifetime.
    ExplorePool* pool = nullptr;
    /// Nested parallelism (default on): cells submit clone batches back
    /// into the shared pool as child tasks, so a 1-cell campaign still
    /// fills all `workers` workers (idle workers steal a parked cell's
    /// clones). Off = the legacy cells-only schedule, kept as the
    /// equivalence baseline. Fault bytes are identical either way at any
    /// worker count (docs/DETERMINISM.md; `explore_nested_test`).
    bool nested = true;
    bool operator==(const Parallelism&) const = default;
  };
  /// The passive observability surface (docs/OBSERVABILITY.md). Strictly
  /// read-only with respect to exploration: any Telemetry configuration
  /// leaves every completed cell's fault bytes identical to a run with
  /// telemetry compiled out (the passivity invariant, pinned by test).
  struct Telemetry {
    /// Span sink for the run (cell/bootstrap/episode/snapshot/clone
    /// timing). Campaign::run clears it at start — one run, one trace —
    /// and finalizes it before returning; nullptr = no span capture.
    obs::Trace* trace = nullptr;
    /// Progress cadence: CampaignObserver::on_progress fires once every N
    /// flushed cells (and always for the final cell). Rejected at 0 by
    /// validate().
    std::size_t progress_every_cells = 1;
    /// Liveness-first second observer stream (RunControl::wall_observer;
    /// svc::SoakObserver): the same start -> fault* -> done burst per cell,
    /// delivered the moment each cell finishes, in WALL-CLOCK completion
    /// order — explicitly non-deterministic across runs and worker counts.
    /// The canonical `observer` stream passed to run() is untouched and
    /// remains the CI surface. Strictly passive; nullptr = off.
    CampaignObserver* wall_observer = nullptr;
    bool operator==(const Telemetry&) const = default;
  };

  /// Everything that pins the byte-identical receipt.
  struct Determinism {
    std::vector<std::uint64_t> seeds{1};
    /// Node-implementation axis (MatrixOptions::implementations;
    /// docs/HETEROGENEITY.md). Each entry fans the cross-product out once
    /// more: "" = every blueprint as authored (per-node pins honored), a
    /// registry id ("bgp", "fsm") re-homes every node onto that engine.
    /// Innermost axis: the default single-"" entry reproduces the historic
    /// cell indices and fault bytes exactly. Unknown non-"" ids are
    /// rejected by validate().
    std::vector<std::string> implementations{std::string()};
    /// Overrides the per-cell derived strategy seed with one fixed value
    /// for EVERY cell (MatrixOptions::strategy_seed). For single-cell
    /// receipt campaigns that must reproduce a standalone Orchestrator
    /// harness's input stream byte-for-byte (the svc round receipt);
    /// nullopt = the derived per-cell streams.
    std::optional<std::uint64_t> strategy_seed = std::nullopt;
    std::uint32_t oscillation_threshold = 8;
    bool bootstrap_early_exit = true;
    bool operator==(const Determinism&) const = default;
  };

  std::vector<StrategyKind> strategies{StrategyKind::kGrammar, StrategyKind::kRandom};
  Budgets budgets;
  Caching caching;
  Parallelism parallelism;
  Telemetry telemetry;
  Determinism determinism;
  /// Time-box: run() behaves as if a stop were requested at this instant
  /// (combined with any caller token; the earlier wins).
  std::optional<StopToken::Clock::time_point> deadline;
  bool operator==(const CampaignOptions&) const = default;

  class Builder;
  [[nodiscard]] static Builder builder();

  /// Rejects nonsense: no strategies, 0 seeds, 0-event budgets, 0 workers,
  /// an implementation-axis id no engine registered under, a deadline
  /// already in the past. Builder::build() calls this.
  [[nodiscard]] util::Status validate() const;

  /// The legacy option structs this facade lowers to — the migration
  /// receipt: a Campaign drives exactly these underneath, so fault sets
  /// match the old wiring byte for byte.
  [[nodiscard]] core::DiceOptions to_dice_options() const;
  [[nodiscard]] MatrixOptions to_matrix_options() const;
};

/// Fluent assembly with build-time validation.
class CampaignOptions::Builder {
 public:
  Builder& strategies(std::vector<StrategyKind> value) {
    options_.strategies = std::move(value);
    return *this;
  }
  Builder& budgets(Budgets value) {
    options_.budgets = value;
    return *this;
  }
  Builder& caching(Caching value) {
    options_.caching = value;
    return *this;
  }
  Builder& parallelism(Parallelism value) {
    options_.parallelism = value;
    return *this;
  }
  /// Convenience: worker count only — the global budget for cells AND
  /// their clone batches.
  Builder& parallelism(std::size_t workers) {
    options_.parallelism.workers = workers;
    return *this;
  }
  /// Convenience: toggle nested (global-budget) scheduling.
  Builder& nested(bool value) {
    options_.parallelism.nested = value;
    return *this;
  }
  /// Per-knob budget conveniences, for callers that set only one or two
  /// fields.
  Builder& episodes_per_cell(std::size_t value) {
    options_.budgets.episodes_per_cell = value;
    return *this;
  }
  Builder& inputs_per_episode(std::size_t value) {
    options_.budgets.inputs_per_episode = value;
    return *this;
  }
  Builder& bootstrap_events(std::size_t value) {
    options_.budgets.bootstrap_events = value;
    return *this;
  }
  Builder& clone_event_budget(std::size_t value) {
    options_.budgets.clone_event_budget = value;
    return *this;
  }
  Builder& oscillation_threshold(std::uint32_t value) {
    options_.determinism.oscillation_threshold = value;
    return *this;
  }
  Builder& telemetry(Telemetry value) {
    options_.telemetry = value;
    return *this;
  }
  /// Convenience: span sink only.
  Builder& trace(obs::Trace* value) {
    options_.telemetry.trace = value;
    return *this;
  }
  /// Convenience: progress cadence only.
  Builder& progress_every_cells(std::size_t value) {
    options_.telemetry.progress_every_cells = value;
    return *this;
  }
  /// Convenience: liveness-first wall-clock observer only.
  Builder& wall_observer(CampaignObserver* value) {
    options_.telemetry.wall_observer = value;
    return *this;
  }
  /// Convenience: fixed strategy seed only (receipt campaigns).
  Builder& strategy_seed(std::uint64_t value) {
    options_.determinism.strategy_seed = value;
    return *this;
  }
  /// Convenience: warm-start UNSAT seeding only.
  Builder& unsat_seed(const std::vector<std::uint64_t>* value) {
    options_.caching.unsat_seed = value;
    return *this;
  }
  Builder& determinism(Determinism value) {
    options_.determinism = std::move(value);
    return *this;
  }
  /// Convenience: seeds only.
  Builder& seeds(std::vector<std::uint64_t> value) {
    options_.determinism.seeds = std::move(value);
    return *this;
  }
  /// Convenience: implementation axis only ("" = blueprints as authored;
  /// a registry id re-homes every node of every scenario onto that engine).
  Builder& implementations(std::vector<std::string> value) {
    options_.determinism.implementations = std::move(value);
    return *this;
  }
  Builder& deadline(StopToken::Clock::time_point value) {
    options_.deadline = value;
    return *this;
  }
  /// Deadline relative to now — the usual way to time-box a soak.
  Builder& time_box(std::chrono::milliseconds duration) {
    options_.deadline = StopToken::Clock::now() + duration;
    return *this;
  }

  /// Validates and returns the options, or the first rejection
  /// (code "campaign.options.*").
  [[nodiscard]] util::Result<CampaignOptions> build() const;

 private:
  CampaignOptions options_;
};

/// What a run produced — complete, or well-formed-partial when cancelled.
/// Extends MatrixResult (cells in canonical order, completed cells'
/// deduplicated faults, cache/pool stats, cells_completed, stopped) rather
/// than mirroring it field by field, so the facade can never silently drop
/// a future MatrixResult field. For every completed cell the fault bytes
/// are identical to an uncancelled run's at any worker count.
struct CampaignResult : MatrixResult {
  double wall_ms = 0.0;
  /// This run's metrics traffic: the global registry snapshot at run end,
  /// delta'd against the snapshot at run start (counters and histogram
  /// buckets are per-run; gauges are current levels).
  obs::MetricsSnapshot telemetry;
};

class Campaign {
 public:
  /// `options` should come from CampaignOptions::builder() (validated);
  /// hand-rolled options are taken as given. The campaign owns its pool,
  /// bootstrap cache and per-scenario prototypes for its lifetime, so
  /// repeat run() calls (soaks) reuse arenas and cached bootstraps.
  Campaign(std::vector<ScenarioSpec> scenarios, CampaignOptions options);

  /// Runs every cell, streaming events to `observer` (may be null) in
  /// canonical order as cells land, honoring `stop` and the options
  /// deadline between cells/episodes/clones. Blocks until all cells
  /// completed or the remainder was cancelled.
  [[nodiscard]] CampaignResult run(CampaignObserver* observer = nullptr,
                                   StopToken stop = {});

  [[nodiscard]] std::size_t cell_count() const noexcept { return matrix_.cell_count(); }
  [[nodiscard]] const CampaignOptions& options() const noexcept { return options_; }
  /// The bootstrap cache this campaign consults (owned unless an external
  /// one was supplied) — soak loops may clear() it between runs.
  [[nodiscard]] LiveStateCache& live_cache() noexcept { return *live_cache_; }
  [[nodiscard]] ExplorePool& pool() noexcept { return *pool_; }
  /// The matrix underneath — svc::SoakService maps its prototypes back to
  /// stable (scenario, implementation) names when persisting warm state.
  [[nodiscard]] const ScenarioMatrix& matrix() const noexcept { return matrix_; }

 private:
  CampaignOptions options_;
  LiveStateCache owned_live_cache_;
  LiveStateCache* live_cache_ = nullptr;  ///< external or &owned_live_cache_
  std::unique_ptr<ExplorePool> owned_pool_;  ///< null when external
  ExplorePool* pool_ = nullptr;
  ScenarioMatrix matrix_;
};

}  // namespace dice::explore
