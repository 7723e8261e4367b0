// ScenarioMatrix: the diverse-soak driver. Fans the cross-product of
// blueprints x input strategies x seeds out onto an ExplorePool — each cell
// boots its own live system, runs DiCE episodes whose clone batches are
// submitted BACK into the same pool as child tasks (nested parallelism: one
// global worker budget for cells and clones, idle workers steal a parked
// cell's clones across cell boundaries), and merges its deduplicated faults
// into one matrix-wide ledger keyed by cell order, so the aggregate fault
// list is deterministic for any worker count, with nesting on or off.
//
// This turns the bench topologies (hijack, policy conflict, cycle,
// topology27) into one soak run covering many scenarios per unit time —
// the throughput-and-diversity route the distributed-testing literature
// (Dfuntest; multi-agent online testing) takes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/topology.hpp"
#include "dice/orchestrator.hpp"
#include "explore/control.hpp"
#include "explore/ledger.hpp"
#include "explore/live_cache.hpp"
#include "explore/pool.hpp"
#include "explore/solver_cache.hpp"

namespace dice::explore {

/// One topology under test, with the name used in reports.
struct ScenarioSpec {
  std::string name;
  bgp::SystemBlueprint blueprint;
};

/// The bench topologies, in matrix-row order: a clean internet, the
/// YouTube-style hijack, the BAD GADGET policy conflict, a ring, and the
/// paper's 27-router Figure 1 topology (with its latent hijack + parser
/// bug).
inline constexpr std::string_view kBenchScenarioNames[] = {
    "internet9-clean", "internet9-hijack", "bad-gadget", "ring6", "topology27"};

/// Builds the bench scenario `name` (one of kBenchScenarioNames), or
/// nullopt for any other name. The ONE construction of each named
/// scenario: the daemon config and default_bench_scenarios() both build
/// through it, so a name means the same blueprint everywhere —
/// "topology27" is the blueprint the pinned `63f680b04458c2a9` receipt is
/// measured on.
[[nodiscard]] std::optional<ScenarioSpec> bench_scenario(std::string_view name);

/// Every bench scenario as matrix rows, in kBenchScenarioNames order.
[[nodiscard]] std::vector<ScenarioSpec> default_bench_scenarios();

enum class StrategyKind : std::uint8_t { kConcolic, kGrammar, kGrammarStrict, kRandom };
[[nodiscard]] std::string_view to_string(StrategyKind kind) noexcept;

struct MatrixOptions {
  std::vector<StrategyKind> strategies{StrategyKind::kGrammar, StrategyKind::kRandom};
  std::vector<std::uint64_t> seeds{1};
  /// Node-implementation axis (docs/HETEROGENEITY.md). Each entry fans the
  /// whole cross-product out once more: "" runs every blueprint exactly as
  /// authored (honoring any per-node implementation pins it carries); a
  /// registry id ("bgp", "fsm") re-homes EVERY node of every scenario onto
  /// that engine for those cells. The axis is the innermost loop, so the
  /// default single-"" axis reproduces the historic cell indices — and
  /// therefore the historic per-cell RNG streams, ledger priorities and
  /// fault bytes — exactly.
  std::vector<std::string> implementations{std::string()};
  std::size_t episodes_per_cell = 1;
  std::size_t bootstrap_events = 500'000;
  core::DiceOptions dice;  ///< per-cell episode options (parallelism forced to 1)
  /// Nested parallelism — the global worker budget. On (default): every
  /// cell submits its episodes' clone batches back into the SAME pool as
  /// child tasks of the cell's worker, so a 1-cell matrix on a W-worker
  /// pool still keeps all W workers busy (idle workers steal the parked
  /// cell's clones). Off: the legacy cells-only split — a cell's clones run
  /// inline on its orchestrator's own threadless pool, on the one worker
  /// that owns the cell (the equivalence baseline). Fault sets are byte-identical either way at any worker
  /// count: strategy streams and ledger priorities derive from canonical
  /// indices, never from execution order (docs/DETERMINISM.md).
  bool nested_parallelism = true;
  /// Bootstrap each (scenario, seed) live system ONCE: the first cell of a
  /// key converges and donates a PreparedLiveState; later cells resume
  /// from it in microseconds (LiveStateCache). Fault sets are byte-
  /// identical to per-cell fresh bootstraps — off is the equivalence
  /// baseline, not a different verdict.
  bool live_state_cache = true;
  /// External cache to share across matrix runs (long soaks re-running the
  /// same scenarios); nullptr = one private cache per run() call.
  LiveStateCache* live_cache = nullptr;
  /// Proven-UNSAT solver keys pre-seeded into every per-cell solver cache
  /// this run creates — the svc::ArtifactStore warm-start path.
  /// Sound and byte-stable: a seeded hit skips solving with the exact
  /// verdict a fresh solve would reach (no model is replayed). The pointed-
  /// at vector must outlive run() and not change during it; nullptr = no
  /// seeding.
  const std::vector<std::uint64_t>* unsat_seed = nullptr;
  /// Overrides the per-cell derived strategy seed
  /// (`Rng(cell.seed).fork(2*index+1).next()`) with one fixed value for
  /// EVERY cell. Meant for single-cell matrices that must reproduce a
  /// standalone Orchestrator harness's input stream byte-for-byte (the
  /// svc round receipt); on a multi-cell matrix it makes same-strategy
  /// cells draw identical input streams. nullopt = the derived streams.
  std::optional<std::uint64_t> strategy_seed = std::nullopt;
};

/// Canonical cross-product identity of one cell — THE shared definition of
/// cell index <-> (scenario, strategy, seed, implementation) used by the
/// matrix body and by callers that label cells by index (perfbench). The
/// implementation axis is the innermost loop (see MatrixOptions).
struct CellIdentity {
  std::size_t scenario = 0;  ///< index into the scenario vector
  StrategyKind strategy = StrategyKind::kGrammar;
  std::uint64_t seed = 0;
  std::size_t seed_pos = 0;  ///< position in options.seeds (bootstrap-key id)
  std::size_t impl_pos = 0;  ///< position in options.implementations
};

/// Enumerates the full cell space in canonical order. An empty
/// implementations axis is treated as the documented single-"" default.
[[nodiscard]] std::vector<CellIdentity> enumerate_cells(std::size_t scenario_count,
                                                        const MatrixOptions& options);

struct CellResult {
  std::string scenario;
  StrategyKind strategy = StrategyKind::kGrammar;
  std::uint64_t seed = 0;
  /// Implementation-axis entry this cell ran under ("" = as authored).
  std::string implementation;
  /// Completion bookkeeping (always true/true without a stop token or an
  /// episode error):
  /// `started` — the cell body ran at all (a fired token skips whole
  /// cells); `completed` — every episode finished uninterrupted and
  /// without an EpisodeResult::error (an errored cell is logged). Only
  /// completed cells contribute to the canonical fault list, which keeps
  /// the faults of every completed cell byte-identical to an uncancelled
  /// run's at any worker count.
  bool started = false;
  bool completed = false;
  bool bootstrap_converged = false;
  bool bootstrap_from_cache = false;  ///< served by a LiveStateCache resume
  std::size_t episodes = 0;
  std::size_t clones_run = 0;
  std::size_t inputs_subjected = 0;
  std::size_t faults = 0;    ///< deduplicated within the cell
  double bootstrap_ms = 0.0; ///< live-system startup (fresh bootstrap or resume)
  double wall_ms = 0.0;
};

struct MatrixResult {
  std::vector<CellResult> cells;            ///< cross-product order
  std::vector<core::FaultReport> faults;    ///< completed cells, canonical cell order
  /// Proven-UNSAT solver keys accumulated by this run's caches (seeded ones
  /// included), ascending and deduplicated — what svc::ArtifactStore
  /// persists for warm starts.
  std::vector<std::uint64_t> unsat_keys;
  SolverCache::Stats solver_cache;          ///< aggregate over all cells
  std::size_t cells_completed = 0;
  bool stopped = false;  ///< some cell was skipped, interrupted or errored
};

/// Observer/stop plumbing for a matrix run. Default-constructed = the
/// legacy blocking behavior (no events, never cancelled).
struct RunControl {
  CampaignObserver* observer = nullptr;  ///< may be null; callbacks serialized
  StopToken stop;                        ///< polled between cells/episodes/clones
  /// Span sink threaded down to every cell's orchestrator. The matrix
  /// reports each flushed cell into it (Trace::cell_flushed) from inside
  /// the reorder buffer and finalizes it when the run returns, so the
  /// trace's canonical section is in canonical cell order and worker-
  /// count-invariant for completed cells. Strictly passive; may be null.
  obs::Trace* trace = nullptr;
  /// Liveness-first second stream (svc::SoakObserver): receives the same
  /// start -> fault* -> done burst per cell, but the moment the cell's task
  /// body finishes — in WALL-CLOCK completion order, which is explicitly
  /// non-deterministic across runs and worker counts. Only cells that ran
  /// are delivered (skipped cells never reach it). Callbacks are serialized
  /// under their own mutex, independent of the canonical stream's reorder
  /// buffer, which stays byte-identical and remains the CI surface. May be
  /// null; strictly passive either way (docs/SERVICE.md).
  CampaignObserver* wall_observer = nullptr;
};

/// Execution-deal permutation: round-robins cell indices across distinct
/// key values (preserving each key's internal order), so cells sharing a
/// (scenario, seed) bootstrap key are not adjacent at batch start — W-1
/// workers would otherwise park on the key's LiveStateCache once-latch
/// while the first cell bootstraps. Pure reordering of EXECUTION: result
/// slots, per-cell seeds and the canonical fault order key off the cell
/// index and are untouched. Exposed for the receipt test.
[[nodiscard]] std::vector<std::size_t> interleave_keys(
    const std::vector<std::size_t>& keys);

class ScenarioMatrix {
 public:
  ScenarioMatrix(std::vector<ScenarioSpec> scenarios, MatrixOptions options);

  /// Runs every (scenario, strategy, seed, implementation) cell on the pool
  /// and blocks
  /// until all complete. (The pre-Campaign `run(pool)` wrapper without a
  /// RunControl is gone after its one release of migration headroom — pass
  /// `RunControl{}` for the legacy blocking behavior, or better, drive the
  /// matrix through explore::Campaign.) Streams events to
  /// `control.observer` in canonical cell order as cells land, and polls
  /// `control.stop` between
  /// cells, episodes and clones (never mid-clone). A cancelled run returns
  /// a well-formed partial result: completed cells keep byte-identical
  /// fault sets, skipped/interrupted ones are flagged and contribute no
  /// faults.
  [[nodiscard]] MatrixResult run(ExplorePool& pool, const RunControl& control);

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return scenarios_.size() * options_.strategies.size() * options_.seeds.size() *
           options_.implementations.size();
  }

  [[nodiscard]] const std::vector<ScenarioSpec>& scenarios() const noexcept {
    return scenarios_;
  }
  [[nodiscard]] const MatrixOptions& options() const noexcept { return options_; }
  /// The matrix-lifetime prototypes, indexed
  /// `scenario * implementations.size() + impl_pos`. What svc::SoakService
  /// maps LiveStateCache keys (prototype pointer identity) back to stable
  /// (scenario, implementation) names for persistence, and forward again
  /// when priming a warm start.
  [[nodiscard]] const std::vector<std::shared_ptr<const core::SystemPrototype>>&
  prototypes() const noexcept {
    return prototypes_;
  }

 private:
  std::vector<ScenarioSpec> scenarios_;
  MatrixOptions options_;
  /// One per (scenario, implementation) pair — indexed
  /// `scenario * implementations.size() + impl_pos` — for the matrix's
  /// lifetime: arena reuse across cells and LiveStateCache keys both hang
  /// off prototype identity, including across repeat run() calls on the
  /// same matrix. A non-"" axis entry gets its own prototype built from a
  /// copy of the blueprint with every node re-homed onto that engine.
  std::vector<std::shared_ptr<const core::SystemPrototype>> prototypes_;
};

}  // namespace dice::explore
