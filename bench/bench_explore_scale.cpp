// E8 — parallel exploration scaling (explore::ExplorePool).
//
// Part 1 runs the same grammar-strategy episodes over the paper's
// 27-router Figure 1 topology (with its latent hijack + parser bug) at
// increasing worker counts, verifying the fault set stays byte-identical
// while wall clock drops. Expected shape on a multi-core machine: ~linear
// speedup until clone cost stops dominating (clones share nothing, so
// exploration is embarrassingly parallel); on a single hardware thread the
// pool degrades gracefully to ~1x. The fault-set hash printed per row is
// the determinism receipt: every row must show the committed literal
// 63f680b04458c2a9 (kReceiptHash), not merely agree with the other rows.
//
// Part 2 fans the ScenarioMatrix (bench topologies x strategies x seeds)
// onto the same pool — the "as many scenarios as you can imagine" soak —
// and runs it with nested (global-budget) scheduling on AND off: the fault
// hashes must match byte for byte.
//
// Part 3 is the nested-occupancy receipt: a single-cell campaign on an
// 8-worker pool, where only the global worker budget can keep more than
// one worker busy (the cell's clone batches are stolen across the cell
// boundary). Emitted into BENCH_explore_scale.json under "nested".
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace {

using namespace dice;

/// The committed topology27 fault-set hash (2 episodes x 32 inputs).
constexpr std::uint64_t kReceiptHash = 0x63f680b04458c2a9ULL;

struct ScaleResult {
  double wall_ms = 0.0;
  std::size_t clones = 0;
  std::size_t faults = 0;
  std::uint64_t fault_hash = 0;
  std::uint64_t steals = 0;
};

ScaleResult run_at(std::size_t workers, std::size_t episodes) {
  bgp::SystemBlueprint blueprint = bgp::make_internet();  // 27 routers
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);

  core::DiceOptions options = explore::CampaignOptions::builder()
                                  .inputs_per_episode(32)
                                  .build()
                                  .take()
                                  .to_dice_options();
  // Single-system harness: a private pool sized by the row (the lowering
  // always emits parallelism = 1 — campaigns share one global pool instead).
  options.parallelism = workers;
  core::Orchestrator dice(std::move(blueprint), options);
  (void)dice.bootstrap();

  core::GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xf1f1);
  ScaleResult result;
  bench::Stopwatch watch;
  for (std::size_t i = 0; i < episodes; ++i) {
    const core::EpisodeResult episode = dice.run_episode(strategy);
    result.clones += episode.clones_run;
  }
  result.wall_ms = watch.ms();
  result.faults = dice.all_faults().size();
  std::uint64_t h = util::kFnvOffset;
  for (const core::FaultReport& fault : dice.all_faults()) {
    h = util::fnv1a(fault.to_string(), h);
  }
  result.fault_hash = util::hash_finalize(h);
  if (dice.pool() != nullptr) result.steals = dice.pool()->stats().steals;
  return result;
}

}  // namespace

int main() {
  using bench::fmt;

  std::printf("== E8: parallel exploration scaling (topology27, %u hardware threads) ==\n\n",
              std::thread::hardware_concurrency());

  constexpr std::size_t kEpisodes = 2;
  bench::Table table({"workers", "episodes", "clones", "faults", "fault-set hash",
                      "steals", "wall ms", "speedup"});
  double serial_ms = 0.0;
  bool identical = true;
  std::uint64_t reported_hash = kReceiptHash;  // a deviating row's hash, if any
  for (const std::size_t workers : {1UL, 2UL, 4UL, 8UL}) {
    const ScaleResult r = run_at(workers, kEpisodes);
    if (workers == 1) serial_ms = r.wall_ms;
    if (r.fault_hash != kReceiptHash) {
      identical = false;
      reported_hash = r.fault_hash;
    }
    char hash_text[32];
    std::snprintf(hash_text, sizeof(hash_text), "%016llx",
                  static_cast<unsigned long long>(r.fault_hash));
    table.row({std::to_string(workers), std::to_string(kEpisodes), std::to_string(r.clones),
               std::to_string(r.faults), hash_text, std::to_string(r.steals),
               fmt(r.wall_ms, 1), fmt(serial_ms / r.wall_ms, 2)});
  }
  table.print();
  std::printf("\nevery worker count reproduces fault-set hash %016llx: %s\n",
              static_cast<unsigned long long>(kReceiptHash),
              identical ? "YES" : "NO (determinism bug!)");

  std::puts("\n== scenario-matrix soak: bench topologies x strategies x seeds ==\n");
  // Driven through the Campaign builder (the lowered options are identical
  // to the old hand-built MatrixOptions, so the receipt below must not
  // move): 4 workers, grammar + concolic, seeds {1, 2}. Run with the
  // legacy cells-only schedule first (the equivalence baseline), then with
  // the nested global budget — same fault bytes required.
  const auto soak_at = [](bool nested, obs::Trace* trace,
                          explore::CampaignObserver* observer) {
    explore::CampaignOptions options =
        explore::CampaignOptions::builder()
            .strategies({explore::StrategyKind::kGrammar,
                         explore::StrategyKind::kConcolic})
            .seeds({1, 2})
            .episodes_per_cell(1)
            .inputs_per_episode(16)
            .parallelism(4)
            .nested(nested)
            .trace(trace)
            .build()
            .take();
    explore::Campaign campaign(explore::default_bench_scenarios(), options);
    return campaign.run(observer);
  };
  bench::Stopwatch cells_only_soak;
  const explore::CampaignResult result = soak_at(/*nested=*/false, nullptr, nullptr);
  const double soak_ms = cells_only_soak.ms();
  // The nested run carries the full telemetry surface — span trace plus a
  // ProgressReporter — and must reproduce the cells-only fault bytes
  // anyway: the bench doubles as the passivity receipt under load.
  obs::Trace soak_trace;
  obs::ProgressReporter reporter;
  bench::Stopwatch nested_soak;
  const explore::CampaignResult nested_result =
      soak_at(/*nested=*/true, &soak_trace, &reporter);
  const double nested_soak_ms = nested_soak.ms();
  const auto fault_set_hash = [](const explore::CampaignResult& run) {
    std::uint64_t h = util::kFnvOffset;
    for (const core::FaultReport& fault : run.faults) h = util::fnv1a(fault.to_string(), h);
    return util::hash_finalize(h);
  };
  const bool nested_match = fault_set_hash(result) == fault_set_hash(nested_result) &&
                            result.faults.size() == nested_result.faults.size();

  bench::Table cells({"scenario", "strategy", "seed", "boot", "clones", "faults", "ms"});
  for (const explore::CellResult& cell : result.cells) {
    cells.row({cell.scenario, std::string(to_string(cell.strategy)),
               std::to_string(cell.seed), cell.bootstrap_converged ? "ok" : "osc",
               std::to_string(cell.clones_run), std::to_string(cell.faults),
               fmt(cell.wall_ms, 1)});
  }
  cells.print();
  std::printf(
      "\nmatrix: %zu cells, %zu distinct faults, %.1f ms wall (cells-only) / "
      "%.1f ms (nested); pool steals=%llu; live-state cache %llu miss / %llu hit\n",
      result.cells.size(), result.faults.size(), soak_ms, nested_soak_ms,
      static_cast<unsigned long long>(result.pool.steals),
      static_cast<unsigned long long>(result.live_cache.misses),
      static_cast<unsigned long long>(result.live_cache.hits));
  std::printf(
      "nested run: %llu child batches, %llu child tasks (%llu helped / %llu stolen "
      "across cells); fault sets identical nested on/off: %s\n",
      static_cast<unsigned long long>(nested_result.pool.child_batches),
      static_cast<unsigned long long>(nested_result.pool.child_tasks),
      static_cast<unsigned long long>(nested_result.pool.helped),
      static_cast<unsigned long long>(nested_result.pool.child_steals),
      nested_match ? "YES" : "NO (determinism bug!)");
  std::printf("solver cache: %llu hits / %llu misses (%llu entries, %llu models)\n",
              static_cast<unsigned long long>(result.solver_cache.hits),
              static_cast<unsigned long long>(result.solver_cache.misses),
              static_cast<unsigned long long>(result.solver_cache.entries),
              static_cast<unsigned long long>(result.solver_cache.sat_entries));

  const char* trace_path = "TRACE_explore_scale.json";
  const bool trace_written = soak_trace.write_chrome_json(trace_path);
  std::printf(
      "trace: %zu spans (%zu canonical, %llu dropped), %llu progress lines -> %s%s\n",
      soak_trace.events().size(), soak_trace.canonical_events(),
      static_cast<unsigned long long>(soak_trace.dropped()),
      static_cast<unsigned long long>(reporter.lines_emitted()), trace_path,
      trace_written ? "" : " (WRITE FAILED)");

  // Part 3 — the occupancy receipt: ONE cell, eight workers. Before the
  // global budget this shape used exactly one worker no matter the pool
  // size; now the cell's clone batches are child tasks that idle workers
  // steal. The dev container is 1-core, so wall clock cannot show the
  // speedup here — occupied_workers and the help/steal split are the
  // hardware-independent receipt that multi-core machines will.
  std::puts("\n== single-cell campaign on an 8-worker pool (nested occupancy) ==\n");
  explore::CampaignOptions single =
      explore::CampaignOptions::builder()
          .strategies({explore::StrategyKind::kGrammar})
          .seeds({1})
          .inputs_per_episode(32)
          .episodes_per_cell(2)
          .parallelism(8)
          .build()
          .take();
  std::vector<explore::ScenarioSpec> one_cell;
  bgp::SystemBlueprint fig1 = bgp::make_internet();
  bgp::inject_hijack(fig1, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(fig1, /*node=*/5, bgp::bugs::kCommunityLength);
  one_cell.push_back({"topology27", std::move(fig1)});
  explore::Campaign single_campaign(std::move(one_cell), single);
  bench::Stopwatch single_watch;
  const explore::CampaignResult single_result = single_campaign.run();
  const double single_ms = single_watch.ms();
  const std::size_t occupied = single_result.pool.occupied_workers();
  std::printf(
      "1 cell, %zu clones: %zu/8 workers occupied; %llu clones helped by the cell's "
      "worker, %llu stolen by idle peers; %.1f ms wall\n",
      single_result.cells.empty() ? 0 : single_result.cells[0].clones_run, occupied,
      static_cast<unsigned long long>(single_result.pool.helped),
      static_cast<unsigned long long>(single_result.pool.child_steals), single_ms);

  char json[1536];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"explore_scale\",\"topology\":\"internet27\","
                "\"episodes\":%zu,\"fault_set_hash\":\"%016llx\","
                "\"fault_sets_identical\":%s,\"serial_wall_ms\":%.1f,"
                "\"matrix_cells\":%zu,\"matrix_faults\":%zu,\"matrix_wall_ms\":%.1f,"
                "\"live_cache_hits\":%llu,"
                "\"nested\":{\"fault_sets_identical\":%s,\"matrix_wall_ms\":%.1f,"
                "\"child_batches\":%llu,\"child_tasks\":%llu,\"helped\":%llu,"
                "\"child_steals\":%llu,\"single_cell_occupied_workers\":%zu,"
                "\"single_cell_wall_ms\":%.1f},"
                "\"trace\":{\"file\":\"%s\",\"written\":%s,\"spans\":%zu,"
                "\"canonical_spans\":%zu,\"dropped\":%llu,"
                "\"progress_lines\":%llu}}",
                kEpisodes, static_cast<unsigned long long>(reported_hash),
                identical ? "true" : "false", serial_ms, result.cells.size(),
                result.faults.size(), soak_ms,
                static_cast<unsigned long long>(result.live_cache.hits),
                nested_match ? "true" : "false", nested_soak_ms,
                static_cast<unsigned long long>(nested_result.pool.child_batches),
                static_cast<unsigned long long>(nested_result.pool.child_tasks),
                static_cast<unsigned long long>(nested_result.pool.helped),
                static_cast<unsigned long long>(nested_result.pool.child_steals),
                occupied, single_ms, trace_path, trace_written ? "true" : "false",
                soak_trace.events().size(), soak_trace.canonical_events(),
                static_cast<unsigned long long>(soak_trace.dropped()),
                static_cast<unsigned long long>(reporter.lines_emitted()));
  bench::emit_json("explore_scale", json);
  return identical && nested_match ? 0 : 1;
}
