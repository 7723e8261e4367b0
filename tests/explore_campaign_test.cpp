// explore::Campaign — the streaming, cancellable facade. The receipts:
// (1) a Campaign run WITH an observer and a stop token produces fault sets
// byte-identical to the legacy ScenarioMatrix::run wiring at workers 1, 2
// and 8 (hash receipt); (2) observer events arrive in canonical cell order
// and the event stream is identical at any worker count; (3) cancelling
// mid-matrix yields a well-formed partial result whose completed cells
// keep byte-identical fault sets; (4) CampaignOptions::Builder rejects
// nonsense at build time.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "explore/campaign.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"

namespace dice::explore {
namespace {

// The legacy thin wrapper ScenarioMatrix::run(pool) — without a RunControl
// — shipped with one release of migration headroom and is now deleted.
// This detector keeps it deleted: if someone reintroduces a pool-only
// overload, the build fails here rather than silently growing a second
// entry point beside the Campaign facade.
template <typename Matrix, typename = void>
struct has_pool_only_run : std::false_type {};
template <typename Matrix>
struct has_pool_only_run<
    Matrix, std::void_t<decltype(std::declval<Matrix&>().run(
                std::declval<ExplorePool&>()))>> : std::true_type {};
static_assert(!has_pool_only_run<ScenarioMatrix>::value,
              "ScenarioMatrix::run(pool) without RunControl was removed after its "
              "migration release; use run(pool, RunControl{}) or explore::Campaign");

using core::FaultReport;

[[nodiscard]] std::vector<ScenarioSpec> campaign_scenarios() {
  std::vector<ScenarioSpec> scenarios;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  scenarios.push_back({"internet9-hijack", std::move(hijack)});
  scenarios.push_back({"line3", bgp::make_line(3)});
  return scenarios;
}

[[nodiscard]] CampaignOptions small_options(std::size_t workers) {
  CampaignOptions options;
  options.strategies = {StrategyKind::kGrammar, StrategyKind::kRandom};
  options.determinism.seeds = {1, 2};
  options.budgets.inputs_per_episode = 4;
  options.budgets.clone_event_budget = 60'000;
  options.budgets.bootstrap_events = 300'000;
  options.parallelism.workers = workers;
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

[[nodiscard]] std::uint64_t line_hash(const std::string& lines) {
  return util::hash_finalize(util::fnv1a(lines, util::kFnvOffset));
}

/// Records the full event stream as a comparable trace, plus per-cell
/// fault strings. Optionally fires a StopSource after the first
/// on_cell_done — the "cancel a soak from the event stream" pattern.
struct Recorder : CampaignObserver {
  std::vector<std::string> events;
  std::map<std::size_t, std::vector<std::string>> cell_faults;
  StopSource* stop_after_first_done = nullptr;
  std::size_t dones = 0;

  void on_cell_start(const CellDescriptor& cell) override {
    events.push_back("start:" + std::to_string(cell.index) + ":" +
                     std::string(cell.scenario) + "/" + std::string(cell.strategy) +
                     "/s" + std::to_string(cell.seed));
  }
  void on_fault(const CellDescriptor& cell, const FaultReport& fault) override {
    events.push_back("fault:" + std::to_string(cell.index));
    cell_faults[cell.index].push_back(fault.to_string());
  }
  void on_cell_done(const CellDescriptor& cell, const CellResult& result) override {
    events.push_back("done:" + std::to_string(cell.index) +
                     (result.completed ? ":completed" : ":cancelled"));
    ++dones;
    if (stop_after_first_done != nullptr && dones == 1) {
      stop_after_first_done->request_stop();
    }
  }
};

// ---------------------------------------------------------------------------
// StopToken mechanics
// ---------------------------------------------------------------------------

TEST(StopTokenTest, DefaultTokenNeverFiresAndSourceTokenDoes) {
  const StopToken inert;
  EXPECT_FALSE(inert.stop_possible());
  EXPECT_FALSE(inert.stop_requested());

  StopSource source;
  const StopToken token = source.token();
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_TRUE(source.stop_requested());
}

TEST(StopTokenTest, DeadlineFiresWithoutAnySource) {
  const StopToken inert;
  const StopToken expired =
      inert.with_deadline(StopToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(expired.stop_possible());
  EXPECT_TRUE(expired.stop_requested());

  const StopToken future =
      inert.with_deadline(StopToken::Clock::now() + std::chrono::hours(1));
  EXPECT_FALSE(future.stop_requested());
  // Combining keeps the earlier deadline.
  EXPECT_TRUE(future
                  .with_deadline(StopToken::Clock::now() -
                                 std::chrono::milliseconds(1))
                  .stop_requested());
}

// ---------------------------------------------------------------------------
// CampaignOptions: build-time validation + lowering receipt
// ---------------------------------------------------------------------------

TEST(CampaignOptionsTest, BuilderAcceptsDefaultsAndSetters) {
  const util::Result<CampaignOptions> plain = CampaignOptions::builder().build();
  ASSERT_TRUE(plain.ok());

  const util::Result<CampaignOptions> tuned =
      CampaignOptions::builder()
          .strategies({StrategyKind::kConcolic})
          .seeds({7, 8})
          .parallelism(4)
          .time_box(std::chrono::hours(1))
          .build();
  ASSERT_TRUE(tuned.ok());
  EXPECT_EQ(tuned.value().strategies.size(), 1u);
  EXPECT_EQ(tuned.value().determinism.seeds, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(tuned.value().parallelism.workers, 4u);
  EXPECT_TRUE(tuned.value().deadline.has_value());
}

TEST(CampaignOptionsTest, BuilderRejectsNonsense) {
  const auto code_of = [](const util::Result<CampaignOptions>& result) {
    return result.ok() ? std::string("ok") : result.error().code;
  };
  EXPECT_EQ(code_of(CampaignOptions::builder().seeds({}).build()),
            "campaign.options.no_seeds");
  EXPECT_EQ(code_of(CampaignOptions::builder().strategies({}).build()),
            "campaign.options.no_strategies");
  EXPECT_EQ(code_of(CampaignOptions::builder()
                        .deadline(StopToken::Clock::now() - std::chrono::seconds(1))
                        .build()),
            "campaign.options.deadline_in_past");

  CampaignOptions::Budgets no_episodes;
  no_episodes.episodes_per_cell = 0;
  EXPECT_EQ(code_of(CampaignOptions::builder().budgets(no_episodes).build()),
            "campaign.options.zero_episodes");

  CampaignOptions::Budgets no_inputs;
  no_inputs.inputs_per_episode = 0;
  EXPECT_EQ(code_of(CampaignOptions::builder().budgets(no_inputs).build()),
            "campaign.options.zero_inputs");

  EXPECT_EQ(code_of(CampaignOptions::builder()
                        .parallelism(CampaignOptions::Parallelism{0})
                        .build()),
            "campaign.options.zero_workers");
}

TEST(CampaignOptionsTest, LoweringMapsEveryLegacyKnob) {
  // Every lowered knob is set off its default, so a dropped line in the
  // lowering shows up as a default value below.
  CampaignOptions options = small_options(/*workers=*/3);
  LiveStateCache live_cache;
  const std::vector<std::uint64_t> unsat_seed{7, 9};
  options.budgets.episodes_per_cell = 2;
  options.caching.live_state_cache = false;
  options.caching.live_cache = &live_cache;
  options.caching.unsat_seed = &unsat_seed;
  options.parallelism.nested = false;
  options.determinism.implementations = {"", "fsm"};
  options.determinism.strategy_seed = 0xf1f1;
  options.determinism.oscillation_threshold = 5;
  options.determinism.bootstrap_early_exit = false;

  const core::DiceOptions dice = options.to_dice_options();
  EXPECT_EQ(dice.inputs_per_episode, 4u);
  EXPECT_EQ(dice.clone_event_budget, 60'000u);
  EXPECT_EQ(dice.oscillation_threshold, 5u);
  EXPECT_FALSE(dice.bootstrap_early_exit);
  EXPECT_EQ(dice.parallelism, 1u)
      << "the lowering never sizes a private pool; the matrix wires the shared one";

  const MatrixOptions matrix = options.to_matrix_options();
  EXPECT_EQ(matrix.strategies, options.strategies);
  EXPECT_EQ(matrix.seeds, options.determinism.seeds);
  EXPECT_EQ(matrix.implementations, options.determinism.implementations);
  EXPECT_EQ(matrix.episodes_per_cell, 2u);
  EXPECT_EQ(matrix.bootstrap_events, 300'000u);
  EXPECT_EQ(matrix.dice.inputs_per_episode, 4u);
  EXPECT_FALSE(matrix.live_state_cache);
  EXPECT_EQ(matrix.live_cache, &live_cache);
  EXPECT_EQ(matrix.unsat_seed, &unsat_seed);
  EXPECT_EQ(matrix.strategy_seed, std::optional<std::uint64_t>(0xf1f1));
  EXPECT_FALSE(matrix.nested_parallelism);
}

// ---------------------------------------------------------------------------
// Facade equivalence: Campaign (observer + token) vs legacy ScenarioMatrix
// ---------------------------------------------------------------------------

TEST(CampaignEquivalenceTest, ObservedTokenedRunMatchesLegacyMatrixAtWorkers1And2And8) {
  // The legacy wiring a caller had to assemble by hand before the facade.
  MatrixOptions legacy_options;
  legacy_options.strategies = {StrategyKind::kGrammar, StrategyKind::kRandom};
  legacy_options.seeds = {1, 2};
  legacy_options.episodes_per_cell = 1;
  legacy_options.bootstrap_events = 300'000;
  legacy_options.dice.inputs_per_episode = 4;
  legacy_options.dice.clone_event_budget = 60'000;
  ScenarioMatrix legacy_matrix(campaign_scenarios(), legacy_options);
  ExplorePool legacy_pool(1);
  const MatrixResult legacy = legacy_matrix.run(legacy_pool, {});
  const std::string reference = fault_lines(legacy.faults);
  const std::uint64_t reference_hash = line_hash(reference);
  ASSERT_FALSE(reference.empty()) << "the hijack scenario must produce faults";

  for (const std::size_t workers : {1u, 2u, 8u}) {
    Recorder recorder;
    StopSource source;  // real token plumbed end to end, never fired
    Campaign campaign(campaign_scenarios(), small_options(workers));
    const CampaignResult result = campaign.run(&recorder, source.token());
    EXPECT_FALSE(result.stopped) << "workers=" << workers;
    EXPECT_EQ(result.cells_completed, result.cells.size()) << "workers=" << workers;
    for (const CellResult& cell : result.cells) {
      EXPECT_TRUE(cell.started);
      EXPECT_TRUE(cell.completed);
    }
    EXPECT_EQ(fault_lines(result.faults), reference) << "workers=" << workers;
    EXPECT_EQ(line_hash(fault_lines(result.faults)), reference_hash)
        << "workers=" << workers;
  }
}

TEST(CampaignEquivalenceTest, ObserverEventStreamIsCanonicalAndWorkerCountInvariant) {
  const auto record = [](std::size_t workers) {
    Recorder recorder;
    Campaign campaign(campaign_scenarios(), small_options(workers));
    const CampaignResult result = campaign.run(&recorder);
    EXPECT_EQ(result.cells_completed, result.cells.size());
    return recorder;
  };

  const Recorder serial = record(1);
  ASSERT_FALSE(serial.events.empty());

  // Canonical order: start(0) ... done(0), start(1) ...
  std::size_t expected_cell = 0;
  std::size_t cells_total = 0;
  for (std::size_t i = 0; i < serial.events.size();) {
    const std::string start_prefix = "start:" + std::to_string(expected_cell) + ":";
    ASSERT_EQ(serial.events[i].substr(0, start_prefix.size()), start_prefix);
    ++i;
    while (i < serial.events.size() &&
           serial.events[i] == "fault:" + std::to_string(expected_cell)) {
      ++i;
    }
    ASSERT_EQ(serial.events[i],
              "done:" + std::to_string(expected_cell) + ":completed");
    ++i;
    ++expected_cell;
    ++cells_total;
  }
  EXPECT_EQ(cells_total, 8u);  // 2 scenarios x 2 strategies x 2 seeds

  // The determinism receipt: byte-identical event stream at any worker count.
  EXPECT_EQ(record(2).events, serial.events);
  EXPECT_EQ(record(8).events, serial.events);
}

// ---------------------------------------------------------------------------
// Cancellation: well-formed partial results
// ---------------------------------------------------------------------------

TEST(CampaignCancellationTest, MidMatrixStopKeepsCompletedCellsByteIdentical) {
  // Uncancelled reference: per-cell fault strings in canonical order.
  Recorder reference;
  Campaign reference_campaign(campaign_scenarios(), small_options(1));
  const CampaignResult full = reference_campaign.run(&reference);
  ASSERT_FALSE(full.stopped);
  ASSERT_FALSE(full.faults.empty());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    Recorder recorder;
    StopSource source;
    recorder.stop_after_first_done = &source;
    Campaign campaign(campaign_scenarios(), small_options(workers));
    const CampaignResult partial = campaign.run(&recorder, source.token());

    // Well-formed partial result: every cell describes itself, flags are
    // consistent, and the canonical fault list is exactly the completed
    // cells' reference faults in canonical order.
    ASSERT_EQ(partial.cells.size(), full.cells.size());
    std::string expected;
    for (std::size_t i = 0; i < partial.cells.size(); ++i) {
      const CellResult& cell = partial.cells[i];
      EXPECT_FALSE(cell.scenario.empty()) << "workers=" << workers << " cell " << i;
      if (cell.completed) {
        EXPECT_TRUE(cell.started);
        const auto it = reference.cell_faults.find(i);
        const std::vector<std::string> none;
        const std::vector<std::string>& cell_reference =
            it == reference.cell_faults.end() ? none : it->second;
        const auto got = recorder.cell_faults.find(i);
        EXPECT_EQ(got == recorder.cell_faults.end() ? none : got->second,
                  cell_reference)
            << "workers=" << workers << " cell " << i;
        for (const std::string& fault : cell_reference) expected += fault + "\n";
      } else {
        EXPECT_EQ(cell.faults, 0u) << "cancelled cells withhold faults";
        EXPECT_EQ(recorder.cell_faults.count(i), 0u);
      }
    }
    EXPECT_EQ(fault_lines(partial.faults), expected) << "workers=" << workers;

    EXPECT_GE(partial.cells_completed, 1u) << "the stopping cell itself completed";
    if (workers <= 2) {
      // With at most 2 workers and 8 cells, cells are certainly still
      // queued when the token fires — the run must actually stop short.
      // (At 8 workers every cell may already be in flight and allowed to
      // finish; the partial-validity checks above still apply.)
      EXPECT_TRUE(partial.stopped) << "workers=" << workers;
      EXPECT_LT(partial.cells_completed, partial.cells.size())
          << "workers=" << workers;
    }
  }
}

TEST(CampaignCancellationTest, SerialCancellationIsFullyDeterministic) {
  Recorder recorder;
  StopSource source;
  recorder.stop_after_first_done = &source;
  Campaign campaign(campaign_scenarios(), small_options(1));
  const CampaignResult partial = campaign.run(&recorder, source.token());

  // workers=1: the inline pool runs one cell at a time, so exactly the
  // first-dealt cell (canonical cell 0) completes and every other cell is
  // skipped before it starts.
  EXPECT_TRUE(partial.stopped);
  EXPECT_EQ(partial.cells_completed, 1u);
  EXPECT_TRUE(partial.cells[0].completed);
  for (std::size_t i = 1; i < partial.cells.size(); ++i) {
    EXPECT_FALSE(partial.cells[i].started) << "cell " << i;
    EXPECT_FALSE(partial.cells[i].completed) << "cell " << i;
  }
  // The event stream still covers every cell, in canonical order.
  EXPECT_EQ(recorder.dones, partial.cells.size());
}

TEST(CampaignCancellationTest, ExpiredDeadlineSkipsEveryCellButStaysWellFormed) {
  CampaignOptions options = small_options(/*workers=*/2);
  options.deadline = StopToken::Clock::now() + std::chrono::milliseconds(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  Recorder recorder;
  Campaign campaign(campaign_scenarios(), options);
  const CampaignResult result = campaign.run(&recorder);
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.cells_completed, 0u);
  EXPECT_TRUE(result.faults.empty());
  ASSERT_EQ(result.cells.size(), 8u);
  for (const CellResult& cell : result.cells) {
    EXPECT_FALSE(cell.started);
    EXPECT_FALSE(cell.scenario.empty());
  }
  EXPECT_EQ(recorder.dones, result.cells.size())
      << "skipped cells still stream their (cancelled) done events";
}

// ---------------------------------------------------------------------------
// Facade lifetime: owned caches serve repeat runs
// ---------------------------------------------------------------------------

TEST(CampaignSoakTest, OwnedLiveCacheServesRepeatRuns) {
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  CampaignOptions options = small_options(/*workers=*/1);
  options.strategies = {StrategyKind::kGrammar};
  options.determinism.seeds = {1};
  Campaign campaign(std::move(scenarios), options);

  const CampaignResult first = campaign.run();
  ASSERT_EQ(first.cells.size(), 1u);
  EXPECT_FALSE(first.cells[0].bootstrap_from_cache);

  const CampaignResult second = campaign.run();
  EXPECT_TRUE(second.cells[0].bootstrap_from_cache);
  if (obs::kEnabled) {
    // Each run's live-cache traffic, from its registry delta.
    EXPECT_EQ(first.telemetry.counter_value(obs::names::kLiveCacheMisses), 1u);
    EXPECT_EQ(second.telemetry.counter_value(obs::names::kLiveCacheHits), 1u);
    EXPECT_EQ(second.telemetry.counter_value(obs::names::kLiveCacheMisses), 0u);
  }
  EXPECT_EQ(fault_lines(second.faults), fault_lines(first.faults));

  // The owned cache is reachable for soak-loop maintenance.
  EXPECT_EQ(campaign.live_cache().size(), 1u);
  campaign.live_cache().clear();
  EXPECT_EQ(campaign.live_cache().size(), 0u);
}

}  // namespace
}  // namespace dice::explore

// ---------------------------------------------------------------------------
// CellMerger: out-of-order results held, then a never-landed tail
// ---------------------------------------------------------------------------
// The reorder buffer's sharpest edge: results landing out of canonical
// order, then a stop leaving the tail of the space never landed. The
// stream must stay canonical, every held cell must still drain, and
// finish_remaining must cover the never-landed tail — a pinned
// partial-validity receipt for the merge path both ScenarioMatrix and
// shard::ShardCoordinator share.

#include "explore/merge.hpp"

namespace dice::explore {
namespace {

struct MergeRecorder : CampaignObserver {
  std::vector<std::string> events;

  void on_cell_start(const CellDescriptor& cell) override {
    events.push_back("start:" + std::to_string(cell.index));
  }
  void on_fault(const CellDescriptor& cell, const core::FaultReport& fault) override {
    events.push_back("fault:" + std::to_string(cell.index) + ":" +
                     std::string(fault.check));
  }
  void on_cell_done(const CellDescriptor& cell, const CellResult& result) override {
    events.push_back("done:" + std::to_string(cell.index) + ":" +
                     (result.started ? "started" : "skipped"));
  }
};

[[nodiscard]] std::vector<CellResult> merger_cells(std::size_t count) {
  std::vector<CellResult> cells(count);
  for (std::size_t i = 0; i < count; ++i) {
    cells[i].scenario = "cell" + std::to_string(i);
    cells[i].seed = i;
  }
  return cells;
}

[[nodiscard]] core::FaultReport merger_fault(const std::string& check,
                                             std::uint32_t node) {
  core::FaultReport fault;
  fault.fault_class = core::FaultClass::kPolicyConflict;
  fault.check = check;
  fault.description = check + " witnessed";
  fault.node = node;
  return fault;
}

TEST(CellMergerTest, HeldOutOfOrderCellsDrainAndFinishRemainingCoversTheTail) {
  std::vector<CellResult> cells = merger_cells(6);
  MergeRecorder recorder;
  CellMerger::Options options;
  options.observer = &recorder;
  CellMerger merger(&cells, options);

  // Cells 2 and 1 land BEFORE cell 0: nothing may stream yet.
  cells[2].started = cells[2].completed = true;
  merger.record_faults(2, {merger_fault("osc", 7)});
  merger.finish_cell(2);
  cells[1].started = cells[1].completed = true;
  merger.record_faults(1, {merger_fault("osc", 7), merger_fault("div", 3)});
  merger.finish_cell(1);
  ASSERT_TRUE(recorder.events.empty())
      << "out-of-order landings must be held for the canonical prefix";
  EXPECT_TRUE(merger.finished(1));
  EXPECT_FALSE(merger.finished(0));

  // Cell 0 lands: the whole held prefix 0,1,2 drains in canonical order.
  cells[0].started = cells[0].completed = true;
  merger.record_faults(0, {merger_fault("div", 3)});
  merger.finish_cell(0);
  const std::vector<std::string> expected_prefix = {
      "start:0", "fault:0:div", "done:0:started",
      "start:1", "fault:1:osc", "fault:1:div", "done:1:started",
      "start:2", "fault:2:osc", "done:2:started",
  };
  ASSERT_EQ(recorder.events, expected_prefix);

  // Cells 3-5 never land (a stop skipped them): finish_remaining covers
  // them exactly once, as skipped, still in canonical order.
  merger.finish_remaining();
  const std::vector<std::string> expected_tail = {
      "start:3", "done:3:skipped",
      "start:4", "done:4:skipped",
      "start:5", "done:5:skipped",
  };
  ASSERT_EQ(recorder.events.size(), expected_prefix.size() + expected_tail.size());
  for (std::size_t i = 0; i < expected_tail.size(); ++i) {
    EXPECT_EQ(recorder.events[expected_prefix.size() + i], expected_tail[i]);
  }

  // The canonical fault list is the completed cells' serial order —
  // per-cell salting keeps the identical "osc"/"div" evidence of
  // different cells distinct instead of cross-cell deduplicating.
  const std::vector<core::FaultReport> faults = merger.canonical_faults();
  ASSERT_EQ(faults.size(), 4u);
  EXPECT_EQ(faults[0].check, "div");  // cell 0
  EXPECT_EQ(faults[1].check, "osc");  // cell 1, encounter order
  EXPECT_EQ(faults[2].check, "div");
  EXPECT_EQ(faults[3].check, "osc");  // cell 2
}

TEST(CellMergerTest, ReversedLandingsStreamEveryCellOnceInCanonicalOrder) {
  std::vector<CellResult> cells = merger_cells(5);
  MergeRecorder recorder;
  CellMerger::Options options;
  options.observer = &recorder;
  CellMerger merger(&cells, options);
  // Land in fully reversed order — the worst case for the reorder buffer.
  for (std::size_t i = cells.size(); i-- > 0;) {
    cells[i].started = cells[i].completed = true;
    merger.finish_cell(i);
  }
  merger.finish_remaining();  // nothing left: must be a no-op
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expected.push_back("start:" + std::to_string(i));
    expected.push_back("done:" + std::to_string(i) + ":started");
  }
  EXPECT_EQ(recorder.events, expected) << "every cell streams exactly once, canonically";
}

}  // namespace
}  // namespace dice::explore
