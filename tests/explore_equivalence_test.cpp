// Clone-path receipts pinned as literals: the hijack fault text at every
// worker count, and the per-node state and cut hashes an arena clone
// converges to. The literals were recorded when a second, decode-per-clone
// path still existed and matched it byte for byte; they now carry that
// proof alone. The oscillation early-exit must cut dispute-wheel budgets
// without losing the fault.
#include <gtest/gtest.h>

#include <sstream>

#include "dice/orchestrator.hpp"
#include "explore/matrix.hpp"
#include "metrics_delta.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace dice::explore {
namespace {

using core::DiceOptions;
using core::EpisodeResult;
using core::FaultReport;
using core::GrammarStrategy;
using core::Orchestrator;
using core::System;
using core::SystemPrototype;

[[nodiscard]] std::string render(const std::vector<FaultReport>& faults) {
  std::ostringstream out;
  for (const FaultReport& fault : faults) out << fault.to_string() << "\n";
  return out.str();
}

// Two hijack episodes (12 inputs each): the first sees the deployed hijack,
// the second re-reports it and adds an input-triggered origin fault. The
// cumulative list deduplicates the standing fault to its first sighting.
constexpr const char* kStandingFault =
    "[operator-mistake] route-origin @node8 ep%d: prefix hash c9e2abcc7fe62609 originated "
    "by AS65008 but owned by AS65005 (seen on 1 node(s))\n";
constexpr const char* kInputFault =
    "[operator-mistake, potential] route-origin @node0 ep2: prefix hash 6e16b27d1549f50d "
    "originated by AS65002 but owned by AS65001 (seen on 8 node(s)) "
    "input=0007180a6500100a6500184001010240020a0102fc00fc00...\n";
// What an internet({2,3,4}) clone of a mid-convergence cut converges to.
constexpr std::uint64_t kConvergedCutHash = 0x0ccc27894abc89e1ULL;
constexpr std::uint64_t kConvergedStateHash = 0xb3ca66fba25eb193ULL;

struct PathOutput {
  std::vector<std::string> episodes;
  std::vector<std::size_t> clones_run;
  std::string all_faults;
  std::size_t clones_reused = 0;
};

[[nodiscard]] PathOutput run_hijack(std::size_t parallelism, std::size_t episodes) {
  bgp::SystemBlueprint blueprint = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(blueprint, /*victim=*/5, /*attacker=*/8);
  DiceOptions options;
  options.inputs_per_episode = 12;
  options.clone_event_budget = 60'000;
  options.parallelism = parallelism;
  Orchestrator dice(std::move(blueprint), options);
  EXPECT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x5eed);
  PathOutput output;
  for (std::size_t i = 0; i < episodes; ++i) {
    const EpisodeResult episode = dice.run_episode(strategy);
    EXPECT_FALSE(episode.error.has_value());
    output.episodes.push_back(render(episode.faults));
    output.clones_run.push_back(episode.clones_run);
    output.clones_reused += episode.clones_reused;
  }
  output.all_faults = render(dice.all_faults());
  return output;
}

TEST(ClonePinTest, HijackFaultSetPinnedAtWorkers1And2And8) {
  const std::string ep1 = util::format(kStandingFault, 1);
  const std::string ep2 = util::format(kStandingFault, 2) + kInputFault;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    const PathOutput output = run_hijack(workers, /*episodes=*/2);
    EXPECT_EQ(output.episodes, (std::vector<std::string>{ep1, ep2})) << "workers=" << workers;
    EXPECT_EQ(output.all_faults, ep1 + kInputFault) << "workers=" << workers;
    EXPECT_EQ(output.clones_run, (std::vector<std::size_t>{13, 13})) << "workers=" << workers;
    EXPECT_GT(output.clones_reused, 0u)
        << "workers=" << workers << ": arenas should be serving repeat clones";
  }
}

TEST(ClonePinTest, ArenaCloneStateAndCutHashesPinned) {
  // System-level receipt: an arena clone of a mid-convergence cut (in-flight
  // frames exist) converges to pinned per-node state hashes, and a snapshot
  // of it yields the pinned cut hash.
  auto prototype =
      std::make_shared<const SystemPrototype>(bgp::make_internet({2, 3, 4}));
  System live(prototype);
  live.start();
  live.simulator().run(350);
  const snapshot::SnapshotId id = live.take_snapshot(1);
  ASSERT_NE(id, 0u);
  const auto prepared = live.prepare_snapshot(id);
  ASSERT_NE(prepared, nullptr);

  CloneArena arena;
  bool reused = false;
  auto acquired = arena.acquire(prototype, *prepared, reused);
  ASSERT_TRUE(acquired.ok()) << acquired.error().to_string();
  System& clone = *acquired.value();
  ASSERT_TRUE(clone.converge());
  std::uint64_t state_hash = util::kFnvOffset;
  for (std::size_t i = 0; i < clone.size(); ++i) {
    state_hash = util::hash_mix(state_hash,
                                clone.router(static_cast<sim::NodeId>(i)).state_hash());
  }
  EXPECT_EQ(state_hash, kConvergedStateHash);
  const snapshot::SnapshotId clone_snap = clone.take_snapshot(0);
  ASSERT_NE(clone_snap, 0u);
  EXPECT_EQ(clone.snapshots().find(clone_snap)->cut_hash(), kConvergedCutHash);
}

TEST(OscillationEarlyExitTest, CutsDisputeWheelBudgetAndKeepsTheFault) {
  const auto run_gadget = [](bool early_exit) {
    DiceOptions options;
    options.inputs_per_episode = 4;
    options.clone_event_budget = 120'000;
    options.oscillation_early_exit = early_exit;
    Orchestrator dice(bgp::make_bad_gadget(), options);
    (void)dice.bootstrap(/*max_events=*/20'000);  // a wheel never converges
    GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x0dd);
    return dice.run_episode(strategy);
  };

  const EpisodeResult fast = run_gadget(/*early_exit=*/true);
  ASSERT_GT(fast.clones_run, 0u);
  EXPECT_EQ(fast.clones_early_exit, fast.clones_run)
      << "every dispute-wheel clone should trip the detector";
  bool policy_conflict = false;
  for (const FaultReport& fault : fast.faults) {
    policy_conflict |= fault.fault_class == core::FaultClass::kPolicyConflict;
  }
  EXPECT_TRUE(policy_conflict) << core::render_fault_table(fast.faults);

  const EpisodeResult slow = run_gadget(/*early_exit=*/false);
  EXPECT_EQ(slow.clones_early_exit, 0u);
  // The early-exit path does strictly less simulation work for the same
  // verdict; explore_ms is wall-clock so only assert the strong invariant
  // that both paths flag the conflict.
  bool slow_conflict = false;
  for (const FaultReport& fault : slow.faults) {
    slow_conflict |= fault.fault_class == core::FaultClass::kPolicyConflict;
  }
  EXPECT_TRUE(slow_conflict);
  EXPECT_LT(fast.explore_ms, slow.explore_ms)
      << "early exit should not be slower than burning the full budget";
}

TEST(OscillationEarlyExitTest, QuiescentClonesNeverTrip) {
  DiceOptions options;
  options.inputs_per_episode = 8;
  options.clone_event_budget = 60'000;
  Orchestrator dice(bgp::make_internet({2, 3, 4}), options);
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0x5eed);
  const EpisodeResult episode = dice.run_episode(strategy);
  EXPECT_GT(episode.clones_run, 0u);
  EXPECT_EQ(episode.clones_early_exit, 0u);
  EXPECT_EQ(episode.clones_non_quiescent, 0u);
}

TEST(PreparedTelemetryTest, EpisodeReportsPreparedPathCounters) {
  DiceOptions options;
  options.inputs_per_episode = 6;
  options.clone_event_budget = 60'000;
  Orchestrator dice(bgp::make_line(3), options);
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const EpisodeResult first = dice.run_episode(strategy);
  EXPECT_GT(first.snapshot_bytes, 0u);
  EXPECT_GE(first.restore_ms, 0.0);
  // Serial path, one arena: the first task constructs, the rest reuse.
  EXPECT_EQ(first.clones_reused + 1, first.clones_run);
  const EpisodeResult second = dice.run_episode(strategy);
  // The arena System survives across episodes: everything is a reuse now.
  EXPECT_EQ(second.clones_reused, second.clones_run);
}

TEST(PreparedTelemetryTest, MatrixReusesArenasAcrossCells) {
  // Two cells of the same scenario on one worker share the prototype, so
  // the second cell's clones land on the first cell's arena System.
  DICE_METRICS_REQUIRED();
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  MatrixOptions options;
  options.strategies = {StrategyKind::kGrammar};
  options.seeds = {1, 2};
  options.episodes_per_cell = 1;
  options.bootstrap_events = 300'000;
  options.dice.inputs_per_episode = 4;
  options.dice.clone_event_budget = 60'000;
  ScenarioMatrix matrix(std::move(scenarios), options);
  ExplorePool pool(1);
  const testutil::CounterDelta delta;
  const MatrixResult result = matrix.run(pool, {});
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(delta(obs::names::kArenaRebuilds), 1u)
      << "one System construction should serve both cells";
  EXPECT_EQ(delta(obs::names::kArenaAcquires),
            delta(obs::names::kArenaReuses) + delta(obs::names::kArenaRebuilds));
}

}  // namespace
}  // namespace dice::explore
