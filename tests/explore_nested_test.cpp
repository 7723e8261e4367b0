// Nested parallelism — the global worker budget. The receipts:
// (1) the committed fault-set hash 63f680b04458c2a9 (the topology27
// receipt configuration, unchanged since it was first recorded) is
// byte-identical on shared and owned pools at workers 1, 2, 4 and 8; (2) a matrix run
// produces identical fault bytes and observer streams with nesting on/off
// at every worker count; (3) a single-cell campaign actually feeds the
// whole pool: its episodes' clone batches run as child tasks, every child
// is either helped (executed by the submitting cell's worker) or stolen by
// an idle peer; (4) cancellation under nesting still yields well-formed
// partial results; (5) the pool's hierarchical run_batch works as a plain
// primitive (reentrant submission, per-group completion, drain credits).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "metrics_delta.hpp"
#include "obs/names.hpp"
#include "svc/soak_service.hpp"

namespace dice::explore {
namespace {

using core::DiceOptions;
using core::EpisodeResult;
using core::FaultReport;
using core::GrammarStrategy;
using core::Orchestrator;

/// The committed determinism receipt: the topology27 2-episode grammar run
/// has hashed to this value since it was first recorded (docs/DETERMINISM.md).
constexpr std::uint64_t kTopology27FaultHash = 0x63f680b04458c2a9ULL;

/// The topology27 receipt configuration. `shared` runs the
/// episodes through an externally-owned pool (the global-budget machinery);
/// otherwise the orchestrator owns a `workers`-sized pool (threadless at 1).
[[nodiscard]] std::uint64_t topology27_hash(std::size_t workers, bool shared) {
  bgp::SystemBlueprint blueprint = bench_scenario("topology27")->blueprint;

  ExplorePool pool(shared ? workers : 1);
  DiceOptions options;
  options.inputs_per_episode = 32;
  if (shared) {
    options.shared_pool = &pool;
  } else {
    options.parallelism = workers;
  }
  Orchestrator dice(std::move(blueprint), options);
  EXPECT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xf1f1);
  for (std::size_t i = 0; i < 2; ++i) (void)dice.run_episode(strategy);
  return svc::fault_set_hash(dice.all_faults());
}

TEST(NestedDeterminismTest, Topology27HashIsByteIdenticalSharedAndOwnedAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(topology27_hash(workers, /*shared=*/true), kTopology27FaultHash)
        << "shared pool, workers=" << workers;
    EXPECT_EQ(topology27_hash(workers, /*shared=*/false), kTopology27FaultHash)
        << "owned pool, workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Matrix-level nesting: cells submit clone batches back into the same pool
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<ScenarioSpec> nested_scenarios() {
  std::vector<ScenarioSpec> scenarios;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  scenarios.push_back({"internet9-hijack", std::move(hijack)});
  scenarios.push_back({"line3", bgp::make_line(3)});
  return scenarios;
}

[[nodiscard]] CampaignOptions nested_options(std::size_t workers, bool nested) {
  CampaignOptions options;
  options.strategies = {StrategyKind::kGrammar, StrategyKind::kRandom};
  options.determinism.seeds = {1, 2};
  options.budgets.inputs_per_episode = 4;
  options.budgets.clone_event_budget = 60'000;
  options.budgets.bootstrap_events = 300'000;
  options.parallelism.workers = workers;
  options.parallelism.nested = nested;
  return options;
}

[[nodiscard]] std::string fault_lines(const std::vector<FaultReport>& faults) {
  std::string lines;
  for (const FaultReport& fault : faults) {
    lines += fault.to_string();
    lines += "\n";
  }
  return lines;
}

TEST(NestedDeterminismTest, CampaignFaultBytesIdenticalNestedOnAndOffAtEveryWorkerCount) {
  Campaign reference_campaign(nested_scenarios(), nested_options(1, /*nested=*/false));
  const CampaignResult reference = reference_campaign.run();
  const std::string expected = fault_lines(reference.faults);
  ASSERT_FALSE(expected.empty()) << "the hijack scenario must produce faults";

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    for (const bool nested : {false, true}) {
      Campaign campaign(nested_scenarios(), nested_options(workers, nested));
      const CampaignResult result = campaign.run();
      EXPECT_EQ(result.cells_completed, result.cells.size())
          << "workers=" << workers << " nested=" << nested;
      EXPECT_EQ(fault_lines(result.faults), expected)
          << "workers=" << workers << " nested=" << nested;
    }
  }
}

TEST(NestedOccupancyTest, SingleCellCampaignFeedsTheWholePool) {
  // One cell on a 4-worker pool: without nesting, 3 workers have nothing to
  // do — the cells-only schedule wastes them by construction. With the
  // global budget the cell's episode batches become child tasks, and every
  // child is accounted for as either helped (run by the cell's own worker
  // while it waits on the group latch) or stolen by an idle peer. The
  // counts are the run's registry delta (CampaignResult::telemetry).
  DICE_METRICS_REQUIRED();
  std::vector<ScenarioSpec> scenarios;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  scenarios.push_back({"internet9-hijack", std::move(hijack)});

  CampaignOptions options = nested_options(/*workers=*/4, /*nested=*/true);
  options.strategies = {StrategyKind::kGrammar};
  options.determinism.seeds = {1};
  options.budgets.inputs_per_episode = 16;
  Campaign campaign(std::move(scenarios), options);
  const CampaignResult result = campaign.run();
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_TRUE(result.cells[0].completed);
  ASSERT_GT(result.cells[0].clones_run, 0u);

  const obs::MetricsSnapshot& pool = result.telemetry;
  EXPECT_EQ(pool.counter_value(obs::names::kPoolBatches), 1u);
  EXPECT_EQ(pool.counter_value(obs::names::kPoolChildBatches), 1u) << "one episode batch";
  const std::uint64_t child_tasks = pool.counter_value(obs::names::kPoolChildTasks);
  EXPECT_EQ(child_tasks, result.cells[0].clones_run);
  EXPECT_EQ(pool.counter_value(obs::names::kPoolTasks), 1u + result.cells[0].clones_run);
  // Conservation law: a child task leaves the queue exactly two ways.
  EXPECT_EQ(pool.counter_value(obs::names::kPoolHelped) +
                pool.counter_value(obs::names::kPoolChildSteals),
            child_tasks);
}

TEST(NestedCancellationTest, StopUnderNestingKeepsCompletedCellsByteIdentical) {
  Campaign reference_campaign(nested_scenarios(), nested_options(1, /*nested=*/false));
  const CampaignResult full = reference_campaign.run();
  ASSERT_FALSE(full.faults.empty());

  // Record the uncancelled per-cell fault lines via the canonical list:
  // cells appear in canonical order, each completed cell's faults are a
  // contiguous run. Simpler: rerun per-cell bookkeeping via an observer.
  struct CellFaults : CampaignObserver {
    std::vector<std::vector<std::string>> per_cell;
    void on_fault(const CellDescriptor& cell, const FaultReport& fault) override {
      if (per_cell.size() <= cell.index) per_cell.resize(cell.index + 1);
      per_cell[cell.index].push_back(fault.to_string());
    }
  };
  CellFaults reference;
  Campaign observed_reference(nested_scenarios(), nested_options(1, /*nested=*/false));
  (void)observed_reference.run(&reference);

  for (const std::size_t workers : {2u, 8u}) {
    struct Stopper : CampaignObserver {
      StopSource source;
      void on_cell_done(const CellDescriptor&, const CellResult&) override {
        source.request_stop();
      }
    };
    Stopper stopper;
    CellFaults partial_faults;
    struct Both : CampaignObserver {
      Stopper* stopper;
      CellFaults* faults;
      void on_fault(const CellDescriptor& cell, const FaultReport& fault) override {
        faults->on_fault(cell, fault);
      }
      void on_cell_done(const CellDescriptor& cell, const CellResult& result) override {
        stopper->on_cell_done(cell, result);
      }
    };
    Both both;
    both.stopper = &stopper;
    both.faults = &partial_faults;
    Campaign campaign(nested_scenarios(), nested_options(workers, /*nested=*/true));
    const CampaignResult partial = campaign.run(&both, stopper.source.token());

    ASSERT_EQ(partial.cells.size(), full.cells.size()) << "workers=" << workers;
    for (std::size_t i = 0; i < partial.cells.size(); ++i) {
      if (!partial.cells[i].completed) {
        EXPECT_EQ(partial.cells[i].faults, 0u)
            << "interrupted cells withhold faults (workers=" << workers << ")";
        continue;
      }
      const std::vector<std::string> none;
      const std::vector<std::string>& got =
          i < partial_faults.per_cell.size() ? partial_faults.per_cell[i] : none;
      const std::vector<std::string>& want =
          i < reference.per_cell.size() ? reference.per_cell[i] : none;
      EXPECT_EQ(got, want) << "workers=" << workers << " cell " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Pool primitive: hierarchical run_batch
// ---------------------------------------------------------------------------

TEST(HierarchicalPoolTest, WorkersCanSubmitChildBatchesReentrantly) {
  for (const std::size_t workers : {1u, 3u}) {
    ExplorePool pool(workers);
    const testutil::CounterDelta delta;
    constexpr std::size_t kParents = 4;
    constexpr std::size_t kChildren = 8;
    std::vector<std::atomic<int>> child_runs(kParents * kChildren);
    std::vector<std::atomic<int>> parent_runs(kParents);
    pool.run_batch(kParents, [&](std::size_t parent, std::size_t) {
      parent_runs[parent].fetch_add(1);
      pool.run_batch(kChildren, [&](std::size_t child, std::size_t) {
        child_runs[parent * kChildren + child].fetch_add(1);
      });
    });
    for (std::size_t i = 0; i < kParents; ++i) {
      EXPECT_EQ(parent_runs[i].load(), 1) << "workers=" << workers;
    }
    for (std::size_t i = 0; i < child_runs.size(); ++i) {
      EXPECT_EQ(child_runs[i].load(), 1)
          << "workers=" << workers << " child slot " << i;
    }
    if (obs::kEnabled) {
      EXPECT_EQ(delta(obs::names::kPoolBatches), 1u);
      EXPECT_EQ(delta(obs::names::kPoolChildBatches), kParents);
      EXPECT_EQ(delta(obs::names::kPoolTasks), kParents + kParents * kChildren);
      EXPECT_EQ(delta(obs::names::kPoolChildTasks), kParents * kChildren);
    }
  }
}

TEST(HierarchicalPoolTest, DrainCreditsChildLatchesSoBatchesStillReturn) {
  // Each parent submits children and (on the serial pool path the drain is
  // a no-op, so use 2 workers) a parent drains the pool mid-batch. All
  // run_batch calls must still return; drained tasks simply never run.
  ExplorePool pool(2);
  std::atomic<std::size_t> children_run{0};
  std::atomic<bool> drained{false};
  pool.run_batch(4, [&](std::size_t, std::size_t) {
    pool.run_batch(16, [&](std::size_t, std::size_t) {
      children_run.fetch_add(1);
      if (!drained.exchange(true)) (void)pool.drain();
    });
  });
  // At least the draining child ran; the drain may have dropped any queued
  // siblings and parents, all of whose latches were credited (we returned).
  EXPECT_GE(children_run.load(), 1u);
  EXPECT_TRUE(drained.load());
}

}  // namespace
}  // namespace dice::explore
