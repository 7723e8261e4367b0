// The DiCE orchestrator: drives the paper's Figure 2 loop.
//
//   1. choose explorer and trigger snapshot creation      (next_explorer)
//   2. establish consistent shadow snapshot of local node
//      checkpoints                                        (take_snapshot)
//   3-5. explore input k over cloned snapshot k           (run_episode)
//   then: check properties, classify faults.
//
// The live system keeps running throughout; exploration happens in cloned
// Systems that share nothing with it ("operates alongside the deployed
// system but in isolation from it").
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_set>

#include "dice/checks.hpp"
#include "dice/inputs.hpp"
#include "dice/report.hpp"
#include "dice/system.hpp"
#include "explore/control.hpp"
#include "explore/pool.hpp"
#include "obs/trace.hpp"

namespace dice::explore {
class LiveStateCache;
}  // namespace dice::explore

namespace dice::core {

struct DiceOptions {
  std::size_t inputs_per_episode = 32;
  std::size_t clone_event_budget = 200'000;   ///< per-clone quiescence budget
  sim::Time clone_time_budget = 120 * sim::kSecond;
  std::uint32_t oscillation_threshold = 8;
  bool stop_on_first_fault = false;
  /// Worker threads for clone exploration (explore::ExplorePool). 1 keeps
  /// the strictly serial compatibility path (no threads are spawned);
  /// any value produces a bit-identical fault set — clone runs depend only
  /// on their own task, and faults merge through a priority-ordered
  /// FaultLedger that reproduces serial encounter order.
  /// `stop_on_first_fault` forces the serial path (its early-exit contract
  /// is inherently sequential). Ignored when `shared_pool` is set.
  std::size_t parallelism = 1;
  /// The GLOBAL worker budget: an externally-owned pool to run clone
  /// batches on instead of a private `parallelism`-sized pool. When the
  /// episode runs on one of the pool's own workers (a ScenarioMatrix cell
  /// with nested parallelism), the clone batch is submitted as CHILD tasks
  /// of that worker — the cell helps execute its own clones while idle
  /// workers steal them across cell boundaries; from any other thread the
  /// batch is a regular external batch. Fault sets are byte-identical to
  /// the serial and private-pool paths for any worker count (see
  /// docs/DETERMINISM.md). The pool must outlive the orchestrator; a
  /// threadless (workers <= 1) pool degrades to the exact serial loop.
  explore::ExplorePool* shared_pool = nullptr;
  /// Read by nothing: clones draw no randomness. Kept only because the
  /// benchmark driver (perfbench) still assigns it; it goes with the next
  /// benchmark change.
  std::uint64_t rng_seed = 0xd1ce5eed;
  /// Terminate a clone run as soon as its oscillation detector is
  /// conclusive (any prefix's best-route flip count reaches
  /// `oscillation_threshold`) instead of burning the full
  /// clone_event_budget — a ~10x soak-time cut on dispute-wheel cells.
  bool oscillation_early_exit = true;
  /// The same early-exit for the LIVE system: Orchestrator::bootstrap
  /// routes through converge_bounded, so a dispute-wheel live system stops
  /// deterministically at the flip threshold instead of exhausting the
  /// bootstrap event budget (it was the last path still burning the full
  /// budget per ScenarioMatrix cell). Shares `oscillation_threshold`.
  /// Exploration proceeds from the early-exit state exactly as it did from
  /// the budget-exhausted one: both are non-quiescent oscillation evidence.
  bool bootstrap_early_exit = true;
  /// Cooperative cancellation (explore::Campaign plumbs its token through
  /// here). Polled BETWEEN clones only — a clone that started always
  /// finishes, so every fault that is reported came from a whole, checked
  /// clone run. When the token fires mid-episode the episode returns with
  /// `EpisodeResult::interrupted` set and a partial (well-formed, but not
  /// canonical) fault list. The default token never fires.
  explore::StopToken stop;
  /// Span sink for episode/snapshot/clone timing (obs::Trace). Strictly
  /// PASSIVE — exploration behavior and fault sets are byte-identical with
  /// or without it (the telemetry invariant, docs/OBSERVABILITY.md). Null
  /// disables span capture at the cost of one branch.
  obs::Trace* trace = nullptr;
  /// The matrix cell id stamped on this orchestrator's spans (ScenarioMatrix
  /// sets it); obs::kNoCell marks spans from standalone harnesses.
  std::uint32_t trace_cell = obs::kNoCell;
};

struct EpisodeResult {
  std::uint64_t episode = 0;
  sim::NodeId explorer = sim::kInvalidNode;
  snapshot::SnapshotId snapshot_id = 0;
  std::size_t inputs_subjected = 0;
  std::size_t clones_run = 0;
  std::size_t clones_non_quiescent = 0;
  std::size_t clones_reused = 0;      ///< clones served by an arena reset
  std::size_t clones_early_exit = 0;  ///< clone runs cut short by oscillation exit
  std::size_t snapshot_bytes = 0;     ///< checkpoint bytes captured (delta-aware)
  std::size_t snapshot_delta_nodes = 0;  ///< nodes that rode the 1-byte delta
  /// The stop token fired mid-episode: some clones were skipped, so
  /// `faults` is a partial list. Callers aggregating canonical fault sets
  /// (ScenarioMatrix) must treat the whole cell as incomplete.
  bool interrupted = false;
  /// The episode could not run every clone: `dice.episode.prepare_failed`
  /// (the snapshot did not decode; no clone ran) or
  /// `dice.episode.clone_reset_failed` (an arena reset failed; the first
  /// failing task's error is the detail). Like `interrupted`, `faults` is
  /// then partial and aggregators must treat the cell as incomplete.
  std::optional<util::Error> error;
  std::vector<FaultReport> faults;  ///< deduplicated within the episode
  double snapshot_ms = 0.0;         ///< wall-clock stage timings (Fig. 2)
  double restore_ms = 0.0;          ///< one-time PreparedSnapshot decode/build
  double clone_ms = 0.0;            ///< per-clone setup total (arena resets)
  double explore_ms = 0.0;
  double check_ms = 0.0;
};

class Orchestrator {
 public:
  Orchestrator(bgp::SystemBlueprint blueprint, DiceOptions options = {});
  /// Shared-prototype form: several orchestrators (ScenarioMatrix cells)
  /// can share one SystemPrototype, which is what lets a worker's clone
  /// arena survive across cells of the same scenario. `external_arena`,
  /// when given, replaces the orchestrator's own serial-path arena — it
  /// must outlive the orchestrator and belong to the calling worker.
  Orchestrator(std::shared_ptr<const SystemPrototype> prototype, DiceOptions options = {},
               explore::CloneArena* external_arena = nullptr);

  /// Starts the live system and converges it (through converge_bounded, so
  /// `bootstrap_early_exit` can stop a dispute wheel at the flip threshold).
  /// Returns false when the live system fails to quiesce (oscillation exit
  /// or budget) — exploration can still proceed from the state left behind.
  bool bootstrap(std::size_t max_events = 2'000'000);

  /// Cache-aware bootstrap for repeated (prototype, seed) live systems
  /// (ScenarioMatrix cells). On the key's first use this orchestrator
  /// bootstraps normally and — when the live system quiesced — donates a
  /// PreparedLiveState capture to `cache`; concurrent same-key callers
  /// block on the key's once-latch meanwhile. On a hit the live system is
  /// resume_from'd in microseconds instead of replaying bootstrap. Keys
  /// that resolved non-quiescent (uncacheable) replay bootstrap, which the
  /// bootstrap early-exit keeps cheap. Fault sets are byte-identical to
  /// per-cell fresh bootstraps either way.
  bool bootstrap_cached(explore::LiveStateCache& cache, std::uint64_t seed,
                        std::size_t max_events = 2'000'000);

  /// How the last bootstrap ended (quiesced / oscillation early-exit).
  [[nodiscard]] const System::ConvergeOutcome& last_bootstrap() const noexcept {
    return last_bootstrap_;
  }
  /// Whether the last bootstrap was served by a LiveStateCache resume.
  [[nodiscard]] bool bootstrap_from_cache() const noexcept { return bootstrap_from_cache_; }

  /// Runs one full explore-and-check episode with the given strategy.
  [[nodiscard]] EpisodeResult run_episode(InputStrategy& strategy);

  /// Runs episodes until a fault of `wanted` class is found or `max_episodes`
  /// pass. Returns the number of inputs subjected before first detection
  /// (SIZE_MAX when not found) — the paper's detection-latency metric.
  [[nodiscard]] std::size_t explore_until_fault(InputStrategy& strategy, FaultClass wanted,
                                                std::size_t max_episodes);

  [[nodiscard]] System& live() noexcept { return *live_; }
  [[nodiscard]] const std::vector<FaultReport>& all_faults() const noexcept {
    return all_faults_;
  }
  [[nodiscard]] std::uint64_t episodes_run() const noexcept { return episode_counter_; }
  /// The clone-execution pool, or nullptr on the serial path (parallelism <= 1).
  [[nodiscard]] explore::ExplorePool* pool() noexcept { return pool_.get(); }

  /// Round-robin explorer election (step 1 of Fig. 2). Deterministic so
  /// experiments are reproducible; real deployments can plug any policy.
  [[nodiscard]] sim::NodeId next_explorer();

  /// Runs the check suite over a (usually cloned) system and returns
  /// classified faults. Incremental: a node still clean since it was
  /// restored (NodeImplementation::clean_checkpoint) reuses the
  /// route-derived verdicts memoized on its checkpoint; crash and
  /// oscillation checks run live on every node. The fault list equals
  /// check_system_full's in content and order (sanitizer builds assert it
  /// on every call). Exposed for tests and custom harnesses.
  [[nodiscard]] std::vector<FaultReport> check_system(System& system, std::uint64_t episode,
                                                      sim::NodeId explorer,
                                                      const util::Bytes& input,
                                                      bool quiesced) const;

  /// The reference check_system is measured against: every check on every
  /// node, origin claims materialized and aggregated through
  /// collect_owners / aggregate_origin_claims. Faults come per node in node
  /// order, then origin violations in (prefix hash, origin) order.
  [[nodiscard]] std::vector<FaultReport> check_system_full(System& system,
                                                           std::uint64_t episode,
                                                           sim::NodeId explorer,
                                                           const util::Bytes& input,
                                                           bool quiesced) const;

 private:
  /// The arena a task runs on: the executing pool worker's (shared or
  /// owned), else the externally provided one, else this orchestrator's
  /// serial arena. `pooled` distinguishes a batch running ON pool workers
  /// (worker ids index that pool's arenas) from the inline serial loop
  /// (worker id is a constant 0 and must NOT touch shared arena 0 — that
  /// one belongs to the pool's real worker 0).
  [[nodiscard]] explore::CloneArena& arena_for(std::size_t worker, bool pooled) noexcept;

  /// The flip threshold bootstrap converges under (0 = early-exit off) —
  /// one definition for both converge_bounded and the LiveStateCache key.
  [[nodiscard]] std::uint32_t bootstrap_flip_exit() const noexcept;

  std::shared_ptr<const SystemPrototype> prototype_;
  DiceOptions options_;
  std::unique_ptr<System> live_;
  std::unique_ptr<explore::ExplorePool> pool_;  ///< created when parallelism > 1
  explore::CloneArena serial_arena_;
  explore::CloneArena* external_arena_ = nullptr;
  System::ConvergeOutcome last_bootstrap_;
  bool bootstrap_from_cache_ = false;
  sim::NodeId next_explorer_ = 0;
  std::uint64_t episode_counter_ = 0;
  std::vector<FaultReport> all_faults_;  ///< globally deduplicated
  std::unordered_set<std::uint64_t> known_fault_keys_;
};

}  // namespace dice::core
