#include "explore/matrix.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>
#include <unordered_map>

#include "bgp/bugs.hpp"
#include "explore/merge.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dice::explore {

namespace {

const util::Logger& logger() {
  static util::Logger instance("explore.matrix");
  return instance;
}

struct MatrixMetrics {
  obs::Counter& cells_completed;
  obs::Histogram& bootstrap_ms;
};

[[nodiscard]] MatrixMetrics& matrix_metrics() {
  static MatrixMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kCellsCompleted),
      obs::MetricsRegistry::global().histogram(obs::names::kBootstrapMs)};
  return metrics;
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::unique_ptr<core::InputStrategy> make_strategy(
    StrategyKind kind, std::uint64_t strategy_seed, concolic::SolverMemo* memo) {
  switch (kind) {
    case StrategyKind::kConcolic: {
      core::ConcolicStrategy::Options options;
      options.rng_seed = strategy_seed;
      options.solver_memo = memo;
      return std::make_unique<core::ConcolicStrategy>(options);
    }
    case StrategyKind::kGrammar:
      return std::make_unique<core::GrammarStrategy>(/*corruption_rate=*/0.05, strategy_seed,
                                                     /*strict=*/false);
    case StrategyKind::kGrammarStrict:
      return std::make_unique<core::GrammarStrategy>(/*corruption_rate=*/0.0, strategy_seed,
                                                     /*strict=*/true);
    case StrategyKind::kRandom:
      return std::make_unique<core::RandomStrategy>(strategy_seed);
  }
  return std::make_unique<core::RandomStrategy>(strategy_seed);
}

}  // namespace

std::vector<std::size_t> interleave_keys(const std::vector<std::size_t>& keys) {
  // Bucket indices per key, preserving arrival order within a key and
  // first-appearance order across keys; then deal one index per key per
  // round. [A,A,A,B,B,B] -> [A0,B3,A1,B4,A2,B5].
  std::vector<std::size_t> distinct;
  std::unordered_map<std::size_t, std::vector<std::size_t>> buckets;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto [it, inserted] = buckets.try_emplace(keys[i]);
    if (inserted) distinct.push_back(keys[i]);
    it->second.push_back(i);
  }
  std::vector<std::size_t> order;
  order.reserve(keys.size());
  for (std::size_t round = 0; order.size() < keys.size(); ++round) {
    for (const std::size_t key : distinct) {
      const std::vector<std::size_t>& bucket = buckets[key];
      if (round < bucket.size()) order.push_back(bucket[round]);
    }
  }
  return order;
}

std::string_view to_string(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kConcolic: return "concolic";
    case StrategyKind::kGrammar: return "grammar";
    case StrategyKind::kGrammarStrict: return "grammar-strict";
    case StrategyKind::kRandom: return "random";
  }
  return "?";
}

std::vector<CellIdentity> enumerate_cells(std::size_t scenario_count,
                                          const MatrixOptions& options) {
  // The implementation axis is the INNERMOST loop: with the default
  // single-"" axis every cell index (and so every derived RNG stream and
  // ledger priority) is identical to the pre-axis enumeration.
  const std::size_t impl_count =
      options.implementations.empty() ? 1 : options.implementations.size();
  std::vector<CellIdentity> cells;
  cells.reserve(scenario_count * options.strategies.size() * options.seeds.size() *
                impl_count);
  for (std::size_t s = 0; s < scenario_count; ++s) {
    for (const StrategyKind kind : options.strategies) {
      for (std::size_t seed_pos = 0; seed_pos < options.seeds.size(); ++seed_pos) {
        for (std::size_t impl_pos = 0; impl_pos < impl_count; ++impl_pos) {
          cells.push_back(
              CellIdentity{s, kind, options.seeds[seed_pos], seed_pos, impl_pos});
        }
      }
    }
  }
  return cells;
}

std::optional<ScenarioSpec> bench_scenario(std::string_view name) {
  ScenarioSpec spec{std::string(name), {}};
  if (name == "internet9-clean") {
    spec.blueprint = bgp::make_internet({2, 3, 4});
  } else if (name == "internet9-hijack") {
    spec.blueprint = bgp::make_internet({2, 3, 4});
    bgp::inject_hijack(spec.blueprint, /*victim=*/5, /*attacker=*/8);
  } else if (name == "bad-gadget") {
    spec.blueprint = bgp::make_bad_gadget();
  } else if (name == "ring6") {
    spec.blueprint = bgp::make_ring(6);
  } else if (name == "topology27") {
    spec.blueprint = bgp::make_internet();  // 27 routers (paper Fig. 1)
    bgp::inject_hijack(spec.blueprint, /*victim=*/12, /*attacker=*/20,
                       /*more_specific=*/true);
    bgp::inject_bug(spec.blueprint, /*node=*/5, bgp::bugs::kCommunityLength);
  } else {
    return std::nullopt;
  }
  return spec;
}

std::vector<ScenarioSpec> default_bench_scenarios() {
  std::vector<ScenarioSpec> scenarios;
  for (const std::string_view name : kBenchScenarioNames) {
    scenarios.push_back(*bench_scenario(name));
  }
  return scenarios;
}

ScenarioMatrix::ScenarioMatrix(std::vector<ScenarioSpec> scenarios, MatrixOptions options)
    : scenarios_(std::move(scenarios)), options_(std::move(options)) {
  // An empty axis would mean zero cells but also zero prototypes to index;
  // normalize to the documented default ("" = blueprint as authored).
  if (options_.implementations.empty()) {
    options_.implementations.push_back(std::string());
  }
  // One SystemPrototype per (scenario, implementation) for the MATRIX's
  // lifetime (not per run): prototype identity is what lets worker arenas
  // keep their System across cells and what keys the LiveStateCache — a
  // shared cache serves repeat run() soaks only if the key survives between
  // them, and two implementation-axis variants of one scenario are two
  // different live systems that must never share a cached bootstrap.
  prototypes_.reserve(scenarios_.size() * options_.implementations.size());
  for (const ScenarioSpec& spec : scenarios_) {
    for (const std::string& impl : options_.implementations) {
      if (impl.empty()) {
        prototypes_.push_back(
            std::make_shared<const core::SystemPrototype>(spec.blueprint));
      } else {
        bgp::SystemBlueprint variant = spec.blueprint;
        variant.set_all_implementations(impl);
        prototypes_.push_back(std::make_shared<const core::SystemPrototype>(variant));
      }
    }
  }
}

MatrixResult ScenarioMatrix::run(ExplorePool& pool, const RunControl& control) {
  // The shared canonical enumeration: cell index <-> identity.
  const std::vector<CellIdentity> cells = enumerate_cells(scenarios_.size(), options_);

  MatrixResult result;
  result.cells.resize(cells.size());
  // Prefill every cell's identity up front: a cell the stop token skips
  // (its task may never even run after a pool drain) must still describe
  // itself in the partial result and in observer events.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    result.cells[i].scenario = scenarios_[cells[i].scenario].name;
    result.cells[i].strategy = cells[i].strategy;
    result.cells[i].seed = cells[i].seed;
    result.cells[i].implementation = options_.implementations[cells[i].impl_pos];
  }

  // Per-cell caches keep every cell's solving history independent of
  // scheduling. Each is pre-seeded with any warm-start UNSAT memo: a seeded
  // hit skips solving with the verdict a fresh solve would reach, so fault
  // bytes are unmoved (no SAT model is ever replayed across runs).
  std::vector<SolverCache> cell_caches(cells.size());
  if (options_.unsat_seed != nullptr) {
    for (SolverCache& cache : cell_caches) cache.seed_unsat(*options_.unsat_seed);
  }

  // Bootstrap-once: cells of the same (scenario, seed) share one converged
  // live state through the cache (the first cell donates, the rest resume).
  LiveStateCache private_cache;
  LiveStateCache* live_cache =
      options_.live_cache != nullptr ? options_.live_cache : &private_cache;

  // Streaming reorder buffer + per-cell-salted canonical ledger
  // (CellMerger). Cells finish in wall-clock order; the observer sees
  // canonical (cross-product) order, and the merger's flush mutex publishes
  // result.cells[i] from the finishing worker to the flusher.
  CellMerger::Options merge_options;
  merge_options.observer = control.observer;
  merge_options.trace = control.trace;
  CellMerger merger(&result.cells, merge_options);

  // Second, liveness-first stream: cells that ran emit their start ->
  // fault* -> done burst the moment their task body finishes, in wall-clock
  // completion order (explicitly non-deterministic). Serialized under its
  // own mutex so a slow wall observer never blocks the canonical reorder
  // buffer above, and vice versa.
  std::mutex wall_mutex;

  const auto descriptor = [&](std::size_t index) {
    const CellIdentity& cell = cells[index];
    return CellDescriptor{index, scenarios_[cell.scenario].name,
                          to_string(cell.strategy), cell.seed,
                          options_.implementations[cell.impl_pos]};
  };

  // The deal: on a multi-worker pool, execution order round-robins across
  // (scenario, seed) bootstrap keys so a batch's first W cells hold W
  // distinct keys — without the interleave, strategy-inner cross-product
  // order parks W-1 workers on one key's once-latch at batch start. A
  // serial pool keeps the identity deal: there is no latch to contend on,
  // and scenario-adjacent cells let the lone worker's arena keep its
  // System across a whole scenario block. Canonical order is untouched
  // either way: `deal` only decides who runs when; every per-cell
  // derivation (slots, seeds, ledger priority) keys off the cell index.
  std::vector<std::size_t> deal;
  if (pool.workers() > 1) {
    std::vector<std::size_t> cell_keys;
    cell_keys.reserve(cells.size());
    for (const CellIdentity& cell : cells) {
      // Bootstrap key = (prototype, seed): the implementation axis picks
      // the prototype, so it is part of the key. Collapses to the historic
      // (scenario, seed) key when the axis is the single default entry.
      cell_keys.push_back(
          (cell.scenario * options_.implementations.size() + cell.impl_pos) *
              options_.seeds.size() +
          cell.seed_pos);
    }
    deal = interleave_keys(cell_keys);
  }

  const bool stoppable = control.stop.stop_possible();
  pool.run_batch(cells.size(), [&](std::size_t dealt, std::size_t worker) {
    const std::size_t index = deal.empty() ? dealt : deal[dealt];
    const CellIdentity& cell = cells[index];
    const ScenarioSpec& spec = scenarios_[cell.scenario];
    CellResult& out = result.cells[index];
    if (stoppable && control.stop.stop_requested()) {
      // Between-cells cancellation point: skip the whole cell and drop the
      // still-queued deal so idle peers stop dequeuing doomed work. The
      // skipped cell still lands in the reorder buffer (partial results
      // stay well-formed); drained cells are swept after the batch.
      pool.drain();
      merger.finish_cell(index);
      return;
    }
    out.started = true;
    obs::Span cell_span(control.trace, "cell", static_cast<std::uint32_t>(worker),
                        static_cast<std::uint32_t>(index));

    const auto start = Clock::now();
    core::DiceOptions dice = options_.dice;
    dice.parallelism = 1;  // nesting off: the cell's own pool is threadless
    dice.trace = control.trace;
    dice.trace_cell = static_cast<std::uint32_t>(index);
    // Nested parallelism: the cell's episodes submit their clone batches
    // back into THIS pool as child tasks of this worker — idle workers
    // steal them across cell boundaries, so even a single parked cell
    // keeps the whole worker budget busy, and clones land on the arena of
    // whichever worker runs them (the shared per-scenario prototype lets
    // every arena's System survive across cells). Off: clones run inline
    // on the orchestrator's own threadless pool (the legacy cells-only
    // split, kept as the equivalence baseline). Either way the fault bytes
    // are identical: strategy streams and ledger priorities key off
    // canonical indices only.
    dice.shared_pool = options_.nested_parallelism ? &pool : nullptr;
    dice.stop = control.stop;  // polled between clones, never mid-clone
    core::Orchestrator orchestrator(
        prototypes_[cell.scenario * options_.implementations.size() + cell.impl_pos],
        dice);
    {
      obs::Span bootstrap_span(control.trace, "bootstrap",
                               static_cast<std::uint32_t>(worker),
                               static_cast<std::uint32_t>(index));
      if (options_.live_state_cache) {
        out.bootstrap_converged = orchestrator.bootstrap_cached(
            *live_cache, cell.seed, options_.bootstrap_events);
        out.bootstrap_from_cache = orchestrator.bootstrap_from_cache();
      } else {
        out.bootstrap_converged = orchestrator.bootstrap(options_.bootstrap_events);
      }
    }
    out.bootstrap_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    matrix_metrics().bootstrap_ms.observe(out.bootstrap_ms);

    // Every cell derives its own independent deterministic stream: the
    // strategy seed depends only on (seed, cell index), never on which
    // worker picked the cell up or when. The odd stream id 2i+1 stays
    // because any other id would move every pinned fault hash. The
    // override pins every cell to one fixed stream instead (single-cell
    // receipt matrices that must reproduce a standalone harness
    // byte-for-byte).
    const std::uint64_t strategy_seed = options_.strategy_seed.has_value()
                                            ? *options_.strategy_seed
                                            : util::Rng(cell.seed).fork(2 * index + 1).next();
    const std::unique_ptr<core::InputStrategy> strategy =
        make_strategy(cell.strategy, strategy_seed, &cell_caches[index]);

    // Between-episodes cancellation points; an episode the token cut short
    // reports interrupted itself, and an errored episode (its snapshot did
    // not prepare or a clone reset failed) counts the same. Either way the
    // cell is incomplete and withholds its (partial) faults from the
    // canonical list.
    bool interrupted = stoppable && control.stop.stop_requested();
    for (std::size_t episode = 0;
         !interrupted && episode < options_.episodes_per_cell; ++episode) {
      const core::EpisodeResult episode_result = orchestrator.run_episode(*strategy);
      ++out.episodes;
      out.clones_run += episode_result.clones_run;
      out.inputs_subjected += episode_result.inputs_subjected;
      if (episode_result.error.has_value()) {
        logger().error() << "cell " << index << " (" << spec.name << ") episode "
                         << episode_result.episode << ": "
                         << episode_result.error->to_string();
      }
      interrupted = episode_result.interrupted || episode_result.error.has_value() ||
                    (stoppable && episode + 1 < options_.episodes_per_cell &&
                     control.stop.stop_requested());
    }
    out.completed = !interrupted;
    if (out.completed) {
      matrix_metrics().cells_completed.add();
      const std::vector<core::FaultReport>& faults = orchestrator.all_faults();
      out.faults = faults.size();
      // The merger applies the canonical ledger discipline (priority
      // `index << 32`, key salt `index + 1`) and stashes the observer copy.
      merger.record_faults(index, faults);
    }
    out.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    const std::string& impl = options_.implementations[cell.impl_pos];
    logger().info() << "cell " << spec.name << "/" << to_string(cell.strategy) << "/s"
                    << cell.seed << (impl.empty() ? "" : "/" + impl) << ": "
                    << out.faults << " fault(s), "
                    << out.clones_run << " clones"
                    << (out.completed ? "" : " [incomplete]");
    if (control.wall_observer != nullptr) {
      const std::lock_guard<std::mutex> wall_lock(wall_mutex);
      const CellDescriptor desc = descriptor(index);
      control.wall_observer->on_cell_start(desc);
      if (out.completed) {
        for (const core::FaultReport& fault : orchestrator.all_faults()) {
          control.wall_observer->on_fault(desc, fault);
        }
      }
      control.wall_observer->on_cell_done(desc, out);
    }
    merger.finish_cell(index);
  });

  // Cells the drain dropped never ran their task body: flush them as
  // skipped so the observer stream and the done flags stay complete.
  merger.finish_remaining();

  // Every recorder has joined (run_batch returned) and every cell was
  // flushed: the trace's canonical ordering is decidable now.
  if (control.trace != nullptr) control.trace->finalize();

  for (const CellResult& cell : result.cells) {
    if (cell.completed) ++result.cells_completed;
  }
  result.stopped = result.cells_completed != result.cells.size();

  result.faults = merger.canonical_faults();
  for (const SolverCache& cache : cell_caches) {
    const SolverCache::Stats stats = cache.stats();
    result.solver_cache.hits += stats.hits;
    result.solver_cache.misses += stats.misses;
    result.solver_cache.stores += stats.stores;
    result.solver_cache.entries += stats.entries;
    result.solver_cache.sat_entries += stats.sat_entries;
    const std::vector<std::uint64_t> keys = cache.unsat_keys();
    result.unsat_keys.insert(result.unsat_keys.end(), keys.begin(), keys.end());
  }
  std::sort(result.unsat_keys.begin(), result.unsat_keys.end());
  result.unsat_keys.erase(std::unique(result.unsat_keys.begin(), result.unsat_keys.end()),
                          result.unsat_keys.end());
  return result;
}

}  // namespace dice::explore
