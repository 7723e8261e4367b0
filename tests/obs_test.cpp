// dice::obs — the passive telemetry subsystem. The receipts:
// (1) metrics merge exactly across concurrent writer threads and snapshots
// come out in stable name order with byte-stable JSON/text exposition;
// (2) histogram bucket edges follow Prometheus `le` semantics (a value
// equal to a bound lands IN that bucket, above the last bound lands in
// +Inf); (3) a Trace's canonical section is the reorder-buffer cell order
// with a deterministic within-cell sort, and the emitted span sequence is
// worker-count-invariant for completed cells; (4) the passivity invariant:
// the committed topology27 fault hash 63f680b04458c2a9 is byte-identical
// with a Trace attached at workers 1, 2, 4 and 8, and a Campaign run under
// a trace and a streaming observer produces the same fault bytes as a bare
// run, and the
// bench-matrix soak (default_bench_scenarios, grammar + concolic) lands on
// its pinned hash nested on and off under a trace that drops nothing and
// stays in canonical cell order; (5) the Log sink swap/write race is gone —
// concurrent set_sink and write() are safe (TSan exercises this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "svc/soak_service.hpp"
#include "util/log.hpp"

namespace dice::obs {
namespace {

using core::FaultReport;

// In a -DDICE_OBS=OFF build every record call is a no-op; the value-level
// metric tests skip there, while the passivity tests below keep running —
// an OFF-build ctest IS the "telemetry compiled out" half of the receipt.
#define DICE_OBS_REQUIRE_ENABLED()                                     \
  do {                                                                 \
    if (!kEnabled) GTEST_SKIP() << "telemetry compiled out (DICE_OBS=OFF)"; \
  } while (0)

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterMergesExactlyAcrossThreads) {
  DICE_OBS_REQUIRE_ENABLED();
  MetricsRegistry registry;
  Counter& counter = registry.counter("test_merge_total");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
      counter.add(5);  // the n > 1 path
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * (kPerThread + 5));
}

TEST(MetricsTest, GaugeSumsSignedContributionsAcrossThreads) {
  DICE_OBS_REQUIRE_ENABLED();
  Gauge gauge;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 1000; ++i) gauge.add();
      for (int i = 0; i < 400; ++i) gauge.sub();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge.value(), 4 * (1000 - 400));
}

TEST(MetricsTest, HistogramBucketEdgesFollowPrometheusLeSemantics) {
  DICE_OBS_REQUIRE_ENABLED();
  Histogram histogram({1.0, 2.0, 5.0});
  histogram.observe(0.5);  // <= 1.0
  histogram.observe(1.0);  // == bound -> that bucket, not the next
  histogram.observe(1.5);  // <= 2.0
  histogram.observe(2.0);  // == bound
  histogram.observe(5.0);  // == last bound
  histogram.observe(5.5);  // above last bound -> +Inf
  const std::vector<std::uint64_t> counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // three bounds + the implicit +Inf bucket
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(histogram.count(), 6u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 5.0 + 5.5);
}

TEST(MetricsTest, SnapshotIsNameSortedAndSerializesStably) {
  DICE_OBS_REQUIRE_ENABLED();
  MetricsRegistry registry;
  registry.counter("zulu_total").add(2);
  registry.counter("alpha_total").add(1);
  registry.gauge("mid_gauge").add(3);
  registry.histogram("lat_ms", {1.0, 10.0}).observe(0.5);

  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha_total");
  EXPECT_EQ(snapshot.counters[1].name, "zulu_total");
  EXPECT_EQ(snapshot.counter_value("zulu_total"), 2u);
  EXPECT_EQ(snapshot.counter_value("absent"), 0u);

  const std::string json = snapshot.to_json();
  EXPECT_NE(json.find("\"counters\":{\"alpha_total\":1,\"zulu_total\":2}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"gauges\":{\"mid_gauge\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  // Equal snapshots serialize to equal bytes — the stable-order receipt.
  EXPECT_EQ(json, registry.snapshot().to_json());

  const std::string text = snapshot.to_text();
  EXPECT_NE(text.find("# TYPE alpha_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ms_sum"), std::string::npos) << text;
  EXPECT_NE(text.find("lat_ms_count 1"), std::string::npos) << text;
}

TEST(MetricsTest, DeltaSinceSubtractsCountersAndKeepsGaugeLevels) {
  DICE_OBS_REQUIRE_ENABLED();
  MetricsRegistry registry;
  Counter& counter = registry.counter("work_total");
  Gauge& gauge = registry.gauge("level");
  Histogram& histogram = registry.histogram("dur_ms", {1.0});

  counter.add(3);
  gauge.add(2);
  histogram.observe(0.5);
  const MetricsSnapshot before = registry.snapshot();

  counter.add(4);
  gauge.add(5);
  histogram.observe(10.0);
  const MetricsSnapshot delta = registry.snapshot().delta_since(before);

  EXPECT_EQ(delta.counter_value("work_total"), 4u);
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_EQ(delta.gauges[0].value, 7);  // current level, not a difference
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 1u);
  ASSERT_EQ(delta.histograms[0].counts.size(), 2u);
  EXPECT_EQ(delta.histograms[0].counts[0], 0u);
  EXPECT_EQ(delta.histograms[0].counts[1], 1u);  // the 10.0 -> +Inf
}

// ---------------------------------------------------------------------------
// Trace: canonical ordering, overflow, Chrome JSON
// ---------------------------------------------------------------------------

[[nodiscard]] TraceEvent make_event(const char* name, std::uint32_t cell,
                                    std::uint64_t episode = 0,
                                    std::uint32_t index = 0,
                                    std::uint32_t worker = 0) {
  TraceEvent event;
  event.name = name;
  event.cell = cell;
  event.episode = episode;
  event.index = index;
  event.worker = worker;
  event.t_start_us = 1.0;
  event.dur_us = 2.0;
  return event;
}

TEST(TraceTest, FinalizeOrdersCompletedCellsCanonicallyWithSortedInteriors) {
  DICE_OBS_REQUIRE_ENABLED();
  Trace trace(/*lanes=*/2, /*lane_capacity=*/16);
  // Recorded in scrambled cross-lane order, exactly as racing workers would.
  trace.record(make_event("episode", /*cell=*/1, /*episode=*/0, 0, /*worker=*/1));
  trace.record(make_event("clone", /*cell=*/0, /*episode=*/0, /*index=*/2));
  trace.record(make_event("clone", /*cell=*/0, /*episode=*/0, /*index=*/1, 1));
  trace.record(make_event("bootstrap", /*cell=*/0));
  trace.record(make_event("episode", /*cell=*/0, /*episode=*/1, 0, 1));
  trace.record(make_event("loose", kNoCell));        // unscoped -> tail
  trace.record(make_event("cell", /*cell=*/2));      // incomplete -> tail

  trace.cell_flushed(0, /*completed=*/true);
  trace.cell_flushed(1, /*completed=*/true);
  trace.cell_flushed(2, /*completed=*/false);
  trace.finalize();

  const std::vector<TraceEvent>& events = trace.events();
  ASSERT_EQ(events.size(), 7u);
  EXPECT_EQ(trace.canonical_events(), 5u);
  // Canonical section: cell 0 sorted by (episode, index, name), then cell 1.
  EXPECT_STREQ(events[0].name, "bootstrap");
  EXPECT_STREQ(events[1].name, "clone");
  EXPECT_EQ(events[1].index, 1u);
  EXPECT_STREQ(events[2].name, "clone");
  EXPECT_EQ(events[2].index, 2u);
  EXPECT_STREQ(events[3].name, "episode");
  EXPECT_EQ(events[3].episode, 1u);
  EXPECT_EQ(events[4].cell, 1u);
  // Tail: the incomplete cell before the unscoped sentinel.
  EXPECT_EQ(events[5].cell, 2u);
  EXPECT_EQ(events[6].cell, kNoCell);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceTest, FullLaneDropsEventsAndCountsThem) {
  DICE_OBS_REQUIRE_ENABLED();
  Trace trace(/*lanes=*/1, /*lane_capacity=*/4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    trace.record(make_event("e", /*cell=*/0, 0, i));
  }
  trace.cell_flushed(0, true);
  trace.finalize();
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
}

TEST(TraceTest, ChromeJsonHasCompleteEventsAndWritesToDisk) {
  DICE_OBS_REQUIRE_ENABLED();
  Trace trace;
  trace.record(make_event("cell", 0, 0, 0, /*worker=*/3));
  trace.cell_flushed(0, true);
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos) << json;
  EXPECT_EQ(json.back(), '}');

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  EXPECT_TRUE(trace.write_chrome_json(path));
}

TEST(TraceTest, SpanOnNullTraceRecordsNothingAndOnRealTraceRecordsOnce) {
  DICE_OBS_REQUIRE_ENABLED();
  {
    Span null_span(nullptr, "nothing", 0);  // must not touch a clock or crash
  }
  Trace trace;
  {
    Span span(&trace, "work", /*worker=*/1, /*cell=*/0, /*episode=*/2, /*index=*/3);
  }
  trace.cell_flushed(0, true);
  trace.finalize();
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_STREQ(trace.events()[0].name, "work");
  EXPECT_EQ(trace.events()[0].episode, 2u);
  EXPECT_EQ(trace.events()[0].index, 3u);
  EXPECT_GE(trace.events()[0].dur_us, 0.0);
}

// ---------------------------------------------------------------------------
// The passivity invariant — the committed determinism receipt survives
// telemetry. The topology27 receipt configuration has hashed to this value
// since it was first recorded (tests/explore_nested_test.cpp pins the bare
// runs).
// ---------------------------------------------------------------------------

constexpr std::uint64_t kTopology27FaultHash = 0x63f680b04458c2a9ULL;

[[nodiscard]] std::uint64_t topology27_hash_with_trace(std::size_t workers,
                                                       Trace* trace) {
  bgp::SystemBlueprint blueprint = explore::bench_scenario("topology27")->blueprint;

  explore::ExplorePool pool(workers);
  core::DiceOptions options;
  options.inputs_per_episode = 32;
  options.shared_pool = &pool;
  options.trace = trace;
  core::Orchestrator dice(std::move(blueprint), options);
  EXPECT_TRUE(dice.bootstrap());
  core::GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xf1f1);
  for (std::size_t i = 0; i < 2; ++i) (void)dice.run_episode(strategy);
  return svc::fault_set_hash(dice.all_faults());
}

TEST(ObsPassivityTest, Topology27HashByteIdenticalWithTraceAttached) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    Trace trace;
    EXPECT_EQ(topology27_hash_with_trace(workers, &trace), kTopology27FaultHash)
        << "workers=" << workers;
    if (kEnabled) {
      trace.finalize();
      EXPECT_FALSE(trace.events().empty()) << "the trace must capture spans";
    }
  }
}

[[nodiscard]] std::vector<explore::ScenarioSpec> campaign_scenarios() {
  std::vector<explore::ScenarioSpec> scenarios;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  scenarios.push_back({"internet9-hijack", std::move(hijack)});
  scenarios.push_back({"line3", bgp::make_line(3)});
  return scenarios;
}

[[nodiscard]] explore::CampaignOptions campaign_options(std::size_t workers,
                                                        bool nested) {
  explore::CampaignOptions options;
  options.strategies = {explore::StrategyKind::kGrammar,
                        explore::StrategyKind::kRandom};
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

/// Counts the canonical stream, so the passivity run keeps an observer
/// attached on the flush path.
struct CountingObserver : explore::CampaignObserver {
  std::size_t starts = 0, faults = 0, dones = 0;
  void on_cell_start(const explore::CellDescriptor&) override { ++starts; }
  void on_fault(const explore::CellDescriptor&, const FaultReport&) override {
    ++faults;
  }
  void on_cell_done(const explore::CellDescriptor&,
                    const explore::CellResult&) override {
    ++dones;
  }
};

TEST(ObsPassivityTest, CampaignFaultBytesIdenticalUnderFullTelemetry) {
  // Reference: a bare serial run, no telemetry attached.
  explore::Campaign reference(campaign_scenarios(),
                              campaign_options(1, /*nested=*/false));
  const std::string expected = fault_lines(reference.run().faults);
  ASSERT_FALSE(expected.empty()) << "the hijack scenario must produce faults";

  for (const std::size_t workers : {1u, 2u, 8u}) {
    for (const bool nested : {false, true}) {
      explore::CampaignOptions options = campaign_options(workers, nested);
      Trace trace;
      options.telemetry.trace = &trace;
      explore::Campaign campaign(campaign_scenarios(), options);
      CountingObserver observer;
      const explore::CampaignResult result = campaign.run(&observer);
      EXPECT_EQ(fault_lines(result.faults), expected)
          << "workers=" << workers << " nested=" << nested;
      EXPECT_EQ(result.cells_completed, result.cells.size());
      EXPECT_EQ(observer.dones, result.cells.size());
      EXPECT_EQ(observer.faults, result.faults.size());
      if (kEnabled) {
        EXPECT_GT(result.telemetry.counter_value(names::kEpisodes), 0u);
      }
    }
  }
}

/// The bench-matrix soak receipt: default_bench_scenarios() x {grammar,
/// concolic} x seeds {1, 2}, 16 inputs per episode, 4 workers — 20 cells,
/// 40 distinct faults. Recorded at commit e9570b3.
constexpr std::uint64_t kBenchMatrixFaultHash = 0x247c9e9d05921a3eULL;
constexpr std::size_t kBenchMatrixFaults = 40;
constexpr std::size_t kBenchMatrixCells = 20;

[[nodiscard]] explore::CampaignResult bench_matrix_soak(bool nested, Trace* trace) {
  explore::CampaignOptions options =
      explore::CampaignOptions::builder()
          .strategies({explore::StrategyKind::kGrammar, explore::StrategyKind::kConcolic})
          .seeds({1, 2})
          .episodes_per_cell(1)
          .inputs_per_episode(16)
          .parallelism(4)
          .nested(nested)
          .trace(trace)
          .build()
          .take();
  explore::Campaign campaign(explore::default_bench_scenarios(), options);
  return campaign.run();
}

TEST(ObsPassivityTest, BenchMatrixSoakPinnedNestedOnAndOffUnderFullTelemetry) {
  // Cells-only and bare first; then nested with a span trace attached.
  // Both must land on the recorded fault bytes.
  const explore::CampaignResult bare = bench_matrix_soak(/*nested=*/false, nullptr);
  Trace trace;
  const explore::CampaignResult traced = bench_matrix_soak(/*nested=*/true, &trace);

  for (const explore::CampaignResult* result : {&bare, &traced}) {
    const bool nested = result == &traced;
    EXPECT_EQ(svc::fault_set_hash(result->faults), kBenchMatrixFaultHash)
        << "nested=" << nested;
    EXPECT_EQ(result->faults.size(), kBenchMatrixFaults) << "nested=" << nested;
    EXPECT_EQ(result->cells.size(), kBenchMatrixCells) << "nested=" << nested;
    EXPECT_EQ(result->cells_completed, kBenchMatrixCells) << "nested=" << nested;
  }
  if (!kEnabled) return;

  // The trace receipt: nothing dropped, every span canonical (all cells
  // completed) and in non-decreasing cell order, one Chrome "X" event per
  // span, and the file writes.
  trace.finalize();
  const std::vector<TraceEvent>& events = trace.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.canonical_events(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_GE(events[i].dur_us, 0.0) << "span " << i;
    if (i > 0 && i < trace.canonical_events()) {
      EXPECT_LE(events[i - 1].cell, events[i].cell) << "canonical section out of cell order at "
                                                    << i;
    }
  }
  const std::string json = trace.to_chrome_json();
  std::size_t complete_events = 0;
  for (std::size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++complete_events;
  }
  EXPECT_EQ(complete_events, events.size());
  EXPECT_TRUE(trace.write_chrome_json(::testing::TempDir() + "obs_bench_matrix_trace.json"));
  EXPECT_GT(traced.telemetry.counter_value(names::kClones), 0u);
}

/// The span signature that must be worker-count-invariant: everything but
/// the timings and the worker id.
using SpanKey = std::tuple<std::string, std::uint32_t, std::uint64_t, std::uint32_t>;

[[nodiscard]] std::vector<SpanKey> canonical_signature(Trace& trace) {
  std::vector<SpanKey> keys;
  keys.reserve(trace.canonical_events());
  for (std::size_t i = 0; i < trace.canonical_events(); ++i) {
    const TraceEvent& event = trace.events()[i];
    keys.emplace_back(event.name, event.cell, event.episode, event.index);
  }
  return keys;
}

TEST(ObsPassivityTest, CanonicalTraceSectionIsWorkerCountInvariant) {
  DICE_OBS_REQUIRE_ENABLED();
  Trace reference_trace;
  explore::CampaignOptions reference_options = campaign_options(1, /*nested=*/true);
  reference_options.telemetry.trace = &reference_trace;
  explore::Campaign reference(campaign_scenarios(), reference_options);
  (void)reference.run();
  const std::vector<SpanKey> expected = canonical_signature(reference_trace);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(reference_trace.canonical_events(), reference_trace.events().size())
      << "a completed run should leave no unordered tail";

  for (const std::size_t workers : {2u, 4u}) {
    Trace trace;
    explore::CampaignOptions options = campaign_options(workers, /*nested=*/true);
    options.telemetry.trace = &trace;
    explore::Campaign campaign(campaign_scenarios(), options);
    (void)campaign.run();
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_EQ(canonical_signature(trace), expected) << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Log sink: concurrent swap/write must be race-free (the old mutex design
// could invoke a sink that set_sink was destroying). Run under TSan in CI.
// ---------------------------------------------------------------------------

TEST(LogSinkRaceTest, ConcurrentSetSinkAndWriteAreSafe) {
  const util::LogLevel previous_level = util::Log::level();
  util::Log::set_level(util::LogLevel::kInfo);

  auto counting_sink = [](std::atomic<std::uint64_t>& counter) {
    return [&counter](util::LogLevel, std::string_view, std::string_view) {
      counter.fetch_add(1, std::memory_order_relaxed);
    };
  };
  std::atomic<std::uint64_t> red{0};
  std::atomic<std::uint64_t> blue{0};
  util::Log::Sink original = util::Log::set_sink(counting_sink(red));

  constexpr std::uint64_t kWriters = 4;
  constexpr std::uint64_t kLinesPerWriter = 500;
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([] {
      const util::Logger logger("obs.race");
      for (std::uint64_t i = 0; i < kLinesPerWriter; ++i) logger.info() << "spin";
    });
  }
  // Storm of swaps between two live sinks while the writers emit. One of
  // the counting sinks is installed at every instant, so no line is lost.
  for (int i = 0; i < 400; ++i) {
    (void)util::Log::set_sink(i % 2 == 0 ? counting_sink(blue) : counting_sink(red));
  }
  for (std::thread& writer : writers) writer.join();

  (void)util::Log::set_sink(std::move(original));
  util::Log::set_level(previous_level);
  EXPECT_EQ(red.load() + blue.load(), kWriters * kLinesPerWriter);
}

TEST(LogSinkRaceTest, LogCaptureSerializesConcurrentWriters) {
  util::LogCapture capture;
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 4; ++t) {
    writers.emplace_back([] {
      const util::Logger logger("obs.capture");
      for (int i = 0; i < 200; ++i) logger.warn() << "line " << i;
    });
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_TRUE(capture.contains("obs.capture: line 0"));
  // Every append is a whole line: 4 writers x 200 lines.
  const std::string& text = capture.text();
  std::size_t lines = 0;
  for (const char c : text) lines += (c == '\n') ? 1 : 0;
  EXPECT_EQ(lines, 800u);
}

}  // namespace
}  // namespace dice::obs
