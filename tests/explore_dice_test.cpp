// End-to-end tests of parallel exploration: DiCE episodes over the worker
// pool must be bit-identical to the 1-worker run for any worker count, and
// the ScenarioMatrix driver must fan cells out deterministically.
#include <gtest/gtest.h>

#include <sstream>

#include "dice/orchestrator.hpp"
#include "explore/matrix.hpp"
#include "metrics_delta.hpp"
#include "obs/names.hpp"

namespace dice::explore {
namespace {

using core::DiceOptions;
using core::EpisodeResult;
using core::FaultReport;
using core::GrammarStrategy;
using core::Orchestrator;

[[nodiscard]] DiceOptions fast_options(std::size_t parallelism) {
  DiceOptions options;
  options.inputs_per_episode = 12;
  options.clone_event_budget = 60'000;
  options.parallelism = parallelism;
  return options;
}

/// Canonical byte-for-byte rendering of a fault list.
[[nodiscard]] std::string render(const std::vector<FaultReport>& faults) {
  std::ostringstream out;
  for (const FaultReport& fault : faults) out << fault.to_string() << "\n";
  return out.str();
}

/// Runs `episodes` grammar-strategy episodes over the hijacked 9-router
/// internet with the given worker count and returns (per-episode renders,
/// global render).
struct RunOutput {
  std::vector<std::string> episodes;
  std::vector<std::size_t> clones_run;
  std::vector<std::size_t> inputs_subjected;
  std::string all_faults;
};

[[nodiscard]] RunOutput run_hijack_exploration(std::size_t parallelism,
                                               std::size_t episodes) {
  bgp::SystemBlueprint blueprint = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(blueprint, /*victim=*/5, /*attacker=*/8);
  Orchestrator dice(std::move(blueprint), fast_options(parallelism));
  EXPECT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x5eed);
  RunOutput output;
  for (std::size_t i = 0; i < episodes; ++i) {
    const EpisodeResult episode = dice.run_episode(strategy);
    output.episodes.push_back(render(episode.faults));
    output.clones_run.push_back(episode.clones_run);
    output.inputs_subjected.push_back(episode.inputs_subjected);
  }
  output.all_faults = render(dice.all_faults());
  return output;
}

TEST(ParallelDiceTest, FaultSetIsByteIdenticalFor1And2And8Workers) {
  // The acceptance property: same seed => identical fault ledger contents
  // at every worker count. Worker scheduling may reorder clone completion
  // arbitrarily; the priority-ordered ledger must hide all of it.
  const RunOutput serial = run_hijack_exploration(/*parallelism=*/1, /*episodes=*/2);
  ASSERT_FALSE(serial.all_faults.empty()) << "hijack scenario should produce faults";
  for (const std::size_t workers : {2u, 8u}) {
    const RunOutput parallel = run_hijack_exploration(workers, /*episodes=*/2);
    EXPECT_EQ(parallel.episodes, serial.episodes) << "workers=" << workers;
    EXPECT_EQ(parallel.clones_run, serial.clones_run) << "workers=" << workers;
    EXPECT_EQ(parallel.inputs_subjected, serial.inputs_subjected)
        << "workers=" << workers;
    EXPECT_EQ(parallel.all_faults, serial.all_faults) << "workers=" << workers;
  }
}

TEST(ParallelDiceTest, ParallelEpisodeUsesThePool) {
  DICE_METRICS_REQUIRED();
  bgp::SystemBlueprint blueprint = bgp::make_internet({2, 3, 4});
  Orchestrator dice(std::move(blueprint), fast_options(4));
  EXPECT_EQ(dice.pool().workers(), 4u);
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const testutil::CounterDelta delta;
  const EpisodeResult episode = dice.run_episode(strategy);
  EXPECT_GT(episode.clones_run, 0u);
  EXPECT_EQ(delta(obs::names::kPoolBatches), 1u);
  EXPECT_EQ(delta(obs::names::kPoolTasks), 13u);  // baseline + 12 inputs
}

TEST(ParallelDiceTest, CloneTasksRunOnWorkerArenasEndToEnd) {
  // run_clone_task without an orchestrator: prepare a snapshot by hand, fan
  // a baseline task plus one input task out over the pool's arenas, and
  // check outcomes land in task order with the check results the
  // orchestrator would compute.
  auto prototype = std::make_shared<const core::SystemPrototype>(bgp::make_line(2));
  core::System live(prototype);
  live.start();
  ASSERT_TRUE(live.converge());
  const snapshot::SnapshotId id = live.take_snapshot(0);
  ASSERT_NE(id, 0u);
  const auto prepared = live.prepare_snapshot(id);
  ASSERT_NE(prepared, nullptr);

  std::vector<CloneTask> tasks(2);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].index = i;
    tasks[i].prototype = prototype;
    tasks[i].prepared = prepared;
    tasks[i].explorer = 0;
    tasks[i].event_budget = 60'000;
  }
  tasks[0].baseline = true;
  tasks[1].input = {0x00, 0x00};  // empty withdrawn+attrs UPDATE body
  tasks[1].inject_from = 1;

  const CheckFn check = [](core::System&, const CloneTask&, bool quiesced) {
    std::vector<core::FaultReport> faults;
    if (!quiesced) faults.push_back({});
    return faults;
  };
  ExplorePool pool(2);
  std::vector<CloneOutcome> outcomes(tasks.size());
  pool.run_batch(tasks.size(), [&](std::size_t index, std::size_t worker) {
    outcomes[index] = run_clone_task(tasks[index], check, pool.arena(worker));
  });
  for (const CloneOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ran);
    EXPECT_FALSE(outcome.error.has_value());
    EXPECT_TRUE(outcome.quiesced);
    EXPECT_TRUE(outcome.faults.empty());
  }
}

TEST(ParallelDiceTest, SerialOrchestratorPoolIsThreadless) {
  Orchestrator dice(bgp::make_line(2), fast_options(1));
  EXPECT_EQ(dice.pool().workers(), 1u);
}

TEST(ParallelDiceTest, LiveSystemUnchangedByParallelExploration) {
  Orchestrator dice(bgp::make_internet({2, 3, 4}), fast_options(4));
  ASSERT_TRUE(dice.bootstrap());
  std::vector<std::uint64_t> hashes_before;
  for (std::size_t i = 0; i < dice.live().size(); ++i) {
    hashes_before.push_back(dice.live().router(static_cast<sim::NodeId>(i)).state_hash());
  }
  GrammarStrategy strategy(/*corruption_rate=*/0.2);
  (void)dice.run_episode(strategy);
  ASSERT_TRUE(dice.live().converge());
  for (std::size_t i = 0; i < dice.live().size(); ++i) {
    EXPECT_EQ(dice.live().router(static_cast<sim::NodeId>(i)).state_hash(),
              hashes_before[i]);
  }
}

// ---------------------------------------------------------------------------
// ScenarioMatrix
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<ScenarioSpec> small_scenarios() {
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  scenarios.push_back({"internet9-hijack", std::move(hijack)});
  return scenarios;
}

[[nodiscard]] MatrixOptions small_matrix_options() {
  MatrixOptions options;
  options.strategies = {StrategyKind::kGrammar, StrategyKind::kRandom};
  options.seeds = {1, 2};
  options.episodes_per_cell = 1;
  options.bootstrap_events = 300'000;
  options.dice.inputs_per_episode = 6;
  options.dice.clone_event_budget = 60'000;
  return options;
}

TEST(ScenarioMatrixTest, RunsTheFullCrossProduct) {
  ScenarioMatrix matrix(small_scenarios(), small_matrix_options());
  EXPECT_EQ(matrix.cell_count(), 8u);  // 2 scenarios x 2 strategies x 2 seeds
  ExplorePool pool(2);
  const testutil::CounterDelta delta;
  const MatrixResult result = matrix.run(pool, {});
  ASSERT_EQ(result.cells.size(), 8u);
  for (const CellResult& cell : result.cells) {
    EXPECT_TRUE(cell.bootstrap_converged) << cell.scenario;
    EXPECT_EQ(cell.episodes, 1u);
    EXPECT_GT(cell.clones_run, 0u) << cell.scenario;
  }
  // Nested parallelism (the default): the pool ran the 8 cell tasks PLUS
  // every episode's clone batch as child tasks of its cell.
  if (obs::kEnabled) {
    std::size_t clones_total = 0;
    for (const CellResult& cell : result.cells) clones_total += cell.clones_run;
    EXPECT_EQ(delta(obs::names::kPoolTasks), 8u + clones_total);
    EXPECT_EQ(delta(obs::names::kPoolChildTasks), clones_total);
    EXPECT_EQ(delta(obs::names::kPoolBatches), 1u);
    EXPECT_EQ(delta(obs::names::kPoolChildBatches), 8u) << "one episode batch per cell";
  }
  // The hijack scenario must surface its standing operator mistake in
  // every strategy/seed cell.
  bool hijack_found = false;
  for (const CellResult& cell : result.cells) {
    if (cell.scenario == "internet9-hijack") hijack_found |= cell.faults > 0;
  }
  EXPECT_TRUE(hijack_found);
  EXPECT_FALSE(result.faults.empty());
}

TEST(ScenarioMatrixTest, RepeatRunsAreDeterministicAcrossWorkerCounts) {
  const auto run_once = [](std::size_t workers) {
    ScenarioMatrix matrix(small_scenarios(), small_matrix_options());
    ExplorePool pool(workers);
    return matrix.run(pool, {});
  };
  const MatrixResult a = run_once(1);
  const MatrixResult b = run_once(2);
  const MatrixResult c = run_once(4);
  ASSERT_EQ(a.faults.size(), b.faults.size());
  ASSERT_EQ(a.faults.size(), c.faults.size());
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    EXPECT_EQ(a.faults[i].to_string(), b.faults[i].to_string());
    EXPECT_EQ(a.faults[i].to_string(), c.faults[i].to_string());
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].faults, b.cells[i].faults);
    EXPECT_EQ(a.cells[i].clones_run, c.cells[i].clones_run);
  }
}

TEST(ScenarioMatrixTest, ConcolicCellsShareTheSolverCacheAcrossEpisodes) {
  // One concolic cell, two episodes: the second episode rebuilds its
  // engine and pool from scratch, but memoized negations must hit.
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  MatrixOptions options;
  options.strategies = {StrategyKind::kConcolic};
  options.seeds = {7};
  options.episodes_per_cell = 2;
  options.bootstrap_events = 300'000;
  options.dice.inputs_per_episode = 8;
  options.dice.clone_event_budget = 60'000;
  ScenarioMatrix matrix(std::move(scenarios), options);
  ExplorePool pool(2);
  const MatrixResult result = matrix.run(pool, {});
  EXPECT_GT(result.solver_cache.stores, 0u);
  EXPECT_GT(result.solver_cache.hits, 0u)
      << "second episode should reuse memoized constraint solutions";
}

}  // namespace
}  // namespace dice::explore
