// E10 — matrix cell startup: fresh bootstrap per cell vs LiveStateCache.
//
// Every ScenarioMatrix cell needs a converged live system before its first
// episode. Without the cache each cell replays start()+converge from
// scratch; with it the first cell of a (scenario, seed) key donates a
// PreparedLiveState and the rest resume in microseconds. This harness runs
// the same reduced-budget matrix both ways, compares per-cell startup on
// the repeated-key cells, and asserts the two runs' fault sets are
// byte-identical (the smoke half: CI runs this binary, so a startup
// regression OR an equivalence break fails the check).
//
// Acceptance: cached repeated-cell startup >= 5x faster than fresh, and a
// bad-gadget bootstrap with the oscillation early-exit no longer burns the
// full event budget. Emits BENCH_matrix_startup.json.
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "obs/names.hpp"

namespace {

using namespace dice;

constexpr std::size_t kBootstrapBudget = 300'000;

[[nodiscard]] std::vector<explore::ScenarioSpec> scenarios() {
  std::vector<explore::ScenarioSpec> specs;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  specs.push_back({"internet9-hijack", std::move(hijack)});
  specs.push_back({"bad-gadget", bgp::make_bad_gadget()});
  specs.push_back({"ring6", bgp::make_ring(6)});
  return specs;
}

struct RunOutput {
  explore::CampaignResult result;
  std::string fault_lines;
};

[[nodiscard]] RunOutput run_matrix(bool cached, bool bootstrap_early_exit) {
  // Driven through the Campaign facade (one object instead of the old
  // ScenarioMatrix + ExplorePool wiring; the lowered options are
  // identical, so fault sets and timings stay comparable to earlier
  // receipts). Four strategies x one seed: every (scenario, seed) key is
  // hit four times, so three of every four cells are "repeated" — the
  // cells the cache is for.
  explore::CampaignOptions::Caching caching;
  caching.live_state_cache = cached;
  explore::CampaignOptions::Determinism determinism;
  determinism.seeds = {1};
  determinism.bootstrap_early_exit = bootstrap_early_exit;
  const explore::CampaignOptions options =
      explore::CampaignOptions::builder()
          .strategies({explore::StrategyKind::kGrammar, explore::StrategyKind::kRandom,
                       explore::StrategyKind::kGrammarStrict,
                       explore::StrategyKind::kConcolic})
          .determinism(std::move(determinism))
          .caching(caching)
          .episodes_per_cell(1)
          .bootstrap_events(kBootstrapBudget)
          .inputs_per_episode(4)
          .clone_event_budget(60'000)
          .parallelism(1)  // serial: per-cell timings stay comparable
          .build()
          .take();
  explore::Campaign campaign(scenarios(), options);
  RunOutput output;
  output.result = campaign.run();
  for (const core::FaultReport& fault : output.result.faults) {
    output.fault_lines += fault.to_string();
    output.fault_lines += "\n";
  }
  return output;
}

/// Mean startup of the cells a cache could serve: every cell of a key
/// except its first encounter in cross-product order.
[[nodiscard]] double repeated_cell_startup_ms(const explore::CampaignResult& result) {
  std::map<std::pair<std::string, std::uint64_t>, bool> seen;
  double total = 0.0;
  std::size_t count = 0;
  for (const explore::CellResult& cell : result.cells) {
    if (!seen.emplace(std::make_pair(cell.scenario, cell.seed), true).second) {
      total += cell.bootstrap_ms;
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

int main() {
  using bench::fmt;

  std::puts("== E10: matrix cell startup — fresh bootstrap vs LiveStateCache ==\n");

  // Three configurations:
  //   baseline — the seed behavior this PR replaces: every cell replays
  //              bootstrap AND a dispute wheel burns the full event budget
  //              (no oscillation exit for the live system);
  //   fresh    — bootstrap early-exit on, cache off: the equivalence
  //              reference for the cached run (same live states by
  //              construction, so fault sets must match byte for byte);
  //   cached   — this PR's default: early-exit + LiveStateCache.
  bench::Stopwatch baseline_watch;
  const RunOutput baseline = run_matrix(/*cached=*/false, /*bootstrap_early_exit=*/false);
  const double baseline_wall_ms = baseline_watch.ms();
  bench::Stopwatch fresh_watch;
  const RunOutput fresh = run_matrix(/*cached=*/false, /*bootstrap_early_exit=*/true);
  const double fresh_wall_ms = fresh_watch.ms();
  bench::Stopwatch cached_watch;
  const RunOutput cached = run_matrix(/*cached=*/true, /*bootstrap_early_exit=*/true);
  const double cached_wall_ms = cached_watch.ms();

  bench::Table cells({"scenario/strategy", "baseline boot ms", "fresh boot ms",
                      "cached boot ms", "resume"});
  for (std::size_t i = 0; i < fresh.result.cells.size(); ++i) {
    const explore::CellResult& b = baseline.result.cells[i];
    const explore::CellResult& f = fresh.result.cells[i];
    const explore::CellResult& c = cached.result.cells[i];
    cells.row({f.scenario + "/" + std::string(to_string(f.strategy)),
               fmt(b.bootstrap_ms, 3), fmt(f.bootstrap_ms, 3), fmt(c.bootstrap_ms, 3),
               c.bootstrap_from_cache ? "cache" : "fresh"});
  }
  cells.print();

  const double baseline_repeat_ms = repeated_cell_startup_ms(baseline.result);
  const double fresh_repeat_ms = repeated_cell_startup_ms(fresh.result);
  const double cached_repeat_ms = repeated_cell_startup_ms(cached.result);
  const double speedup =
      cached_repeat_ms > 0.0 ? baseline_repeat_ms / cached_repeat_ms : 0.0;
  const bool identical = fresh.fault_lines == cached.fault_lines &&
                         !fresh.fault_lines.empty();
  // The cached run's live-cache traffic, from its registry delta.
  const obs::MetricsSnapshot& traffic = cached.result.telemetry;
  const auto cache_misses =
      static_cast<unsigned long long>(traffic.counter_value(obs::names::kLiveCacheMisses));
  const auto cache_hits =
      static_cast<unsigned long long>(traffic.counter_value(obs::names::kLiveCacheHits));
  std::printf(
      "\nrepeated-(scenario, seed) cell startup: %.3f ms baseline -> %.3f ms fresh "
      "-> %.3f ms cached (%.1fx vs baseline); cache %llu miss / %llu hit "
      "(%llu uncacheable lookups)\n",
      baseline_repeat_ms, fresh_repeat_ms, cached_repeat_ms, speedup, cache_misses,
      cache_hits,
      static_cast<unsigned long long>(
          traffic.counter_value(obs::names::kLiveCacheUncacheable)));
  std::printf("fault sets byte-identical cached vs fresh: %s\n",
              identical ? "YES" : "NO (equivalence bug!)");

  // The other half of the startup story: a dispute-wheel bootstrap now
  // takes the deterministic oscillation exit instead of burning the budget.
  const auto gadget_events = [](bool early_exit) {
    explore::CampaignOptions::Determinism determinism;
    determinism.bootstrap_early_exit = early_exit;
    const core::DiceOptions options = explore::CampaignOptions::builder()
                                          .determinism(std::move(determinism))
                                          .build()
                                          .take()
                                          .to_dice_options();
    core::Orchestrator dice(bgp::make_bad_gadget(), options);
    (void)dice.bootstrap(kBootstrapBudget);
    return dice.live().simulator().executed();
  };
  const std::uint64_t gadget_full = gadget_events(/*early_exit=*/false);
  const std::uint64_t gadget_exit = gadget_events(/*early_exit=*/true);
  std::printf("bad-gadget bootstrap events: %llu (no exit) -> %llu (oscillation exit)\n",
              static_cast<unsigned long long>(gadget_full),
              static_cast<unsigned long long>(gadget_exit));

  char json[768];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"matrix_startup\",\"cells\":%zu,"
      "\"baseline_repeat_boot_ms\":%.3f,\"fresh_repeat_boot_ms\":%.3f,"
      "\"cached_repeat_boot_ms\":%.3f,\"startup_speedup\":%.1f,"
      "\"cache_misses\":%llu,\"cache_hits\":%llu,"
      "\"badgadget_bootstrap_events_full\":%llu,"
      "\"badgadget_bootstrap_events_early_exit\":%llu,"
      "\"baseline_wall_ms\":%.1f,\"fresh_wall_ms\":%.1f,\"cached_wall_ms\":%.1f,"
      "\"fault_sets_identical\":%s}",
      cached.result.cells.size(), baseline_repeat_ms, fresh_repeat_ms,
      cached_repeat_ms, speedup, cache_misses, cache_hits,
      static_cast<unsigned long long>(gadget_full),
      static_cast<unsigned long long>(gadget_exit), baseline_wall_ms, fresh_wall_ms,
      cached_wall_ms, identical ? "true" : "false");
  bench::emit_json("matrix_startup", json);

  const bool pass = identical && speedup >= 5.0 && gadget_exit * 4 < gadget_full;
  std::printf("\nacceptance (>=5x repeated-cell startup, early-exit bootstrap, "
              "identical faults): %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
