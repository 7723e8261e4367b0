// F1 — Figure 1 reproduction: DiCE exploring a 27-router BGP topology
// with Internet-like conditions.
//
// The paper's demo shows a GUI over a live 27-router system while DiCE
// runs exploration episodes. This harness reproduces the experiment as a
// textual episode timeline: the system converges, all three fault classes
// are latently present (hijack config, a dispute wheel among three stubs'
// preferences is NOT injected here — policy conflict comes from its own
// bench — plus a parser bug), and episodes rotate explorers until every
// fault class surfaces.
#include <cstdio>

#include "bench_util.hpp"
#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "util/strings.hpp"

int main() {
  using namespace dice;
  using bench::fmt;
  using bench::Stopwatch;

  std::puts("== F1: DiCE over the 27-router Internet-like topology (paper Fig. 1) ==\n");

  bgp::SystemBlueprint blueprint = bgp::make_internet();  // 3 + 8 + 16 = 27
  // Latent faults for the demo, one per class:
  //  - operator mistake: stub r20 originates a /24 of stub r12's block;
  //  - programming error: tier-2 router r5 has the COMMUNITY-length bug.
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);

  const core::DiceOptions options = explore::CampaignOptions::builder()
                                        .inputs_per_episode(24)
                                        .build()
                                        .take()
                                        .to_dice_options();
  core::Orchestrator dice(std::move(blueprint), options);

  Stopwatch boot;
  const bool converged = dice.bootstrap();
  std::printf("live system: %zu routers, converged=%s in %.1f ms (%zu routes, %zu sessions)\n\n",
              dice.live().size(), converged ? "yes" : "no", boot.ms(),
              dice.live().total_loc_rib_routes(), dice.live().established_sessions());

  core::ConcolicStrategy strategy;
  bench::Table table({"episode", "explorer", "inputs", "clones", "reused", "snap KB",
                      "snapshot ms", "restore ms", "clone ms", "explore ms", "check ms",
                      "new faults"});

  std::size_t found_classes = 0;
  bool seen[3] = {};
  std::size_t clones_total = 0;
  std::size_t reused_total = 0;
  double restore_total_ms = 0.0;
  double clone_total_ms = 0.0;
  Stopwatch total;
  for (int i = 0; i < 12 && found_classes < 2; ++i) {
    const core::EpisodeResult episode = dice.run_episode(strategy);
    for (const core::FaultReport& fault : episode.faults) {
      const auto index = static_cast<std::size_t>(fault.fault_class);
      if (!seen[index]) {
        seen[index] = true;
        ++found_classes;
      }
    }
    clones_total += episode.clones_run;
    reused_total += episode.clones_reused;
    restore_total_ms += episode.restore_ms;
    clone_total_ms += episode.clone_ms;
    table.row({std::to_string(episode.episode), util::format("r%u", static_cast<unsigned>(episode.explorer)),
               std::to_string(episode.inputs_subjected), std::to_string(episode.clones_run),
               std::to_string(episode.clones_reused),
               fmt(static_cast<double>(episode.snapshot_bytes) / 1024.0, 1),
               fmt(episode.snapshot_ms), fmt(episode.restore_ms), fmt(episode.clone_ms),
               fmt(episode.explore_ms), fmt(episode.check_ms),
               std::to_string(episode.faults.size())});
  }
  table.print();

  std::printf("\ntotal: %zu episodes, %.1f ms wall clock\n", dice.episodes_run(), total.ms());
  std::printf(
      "prepared pipeline: %zu/%zu clones served by arena reuse; decode-once %.1f ms, "
      "per-clone setup %.1f ms total\n",
      reused_total, clones_total, restore_total_ms, clone_total_ms);
  std::printf("concolic totals: %llu executions, %llu unique paths, %llu branch points\n",
              static_cast<unsigned long long>(strategy.stats().executions),
              static_cast<unsigned long long>(strategy.stats().unique_paths),
              static_cast<unsigned long long>(strategy.stats().branch_points));

  std::printf("\nfaults detected:\n%s",
              core::render_fault_table(dice.all_faults()).c_str());
  std::printf("\nfault classes covered: %zu/2 latent (operator mistake + programming error)\n",
              found_classes);
  return found_classes >= 2 ? 0 : 1;
}
