// Quickstart: the smallest complete DiCE deployment.
//
// Builds a 3-router BGP system, converges it, and runs one exploration
// episode (snapshot -> clone per input -> subject input -> check). With a
// clean system the run reports zero faults; flip the `kInjectHijack` knob
// below to watch the origin checker fire.
//
//   ./quickstart            # clean system
//   ./quickstart hijack     # with an injected operator mistake
#include <cstdio>
#include <cstring>

#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"

int main(int argc, char** argv) {
  using namespace dice;

  const bool inject = argc > 1 && std::strcmp(argv[1], "hijack") == 0;

  // 1. Describe the system: three routers in a line, eBGP everywhere,
  //    each originating one /16. Blueprints are built in code; each
  //    router's RouterConfig (bgp/config.hpp) is plain data to edit.
  bgp::SystemBlueprint blueprint = bgp::make_line(3);
  if (inject) {
    // Operator mistake: r2 also originates r0's prefix.
    bgp::inject_hijack(blueprint, /*victim=*/0, /*attacker=*/2);
  }

  // 2. Bring up DiCE around the live system. Options go through the
  //    Campaign builder (validated, grouped — docs/TUNING.md) and lower to
  //    the orchestrator struct this single-system harness drives directly.
  const core::DiceOptions options = explore::CampaignOptions::builder()
                                        .inputs_per_episode(16)
                                        .build()
                                        .take()
                                        .to_dice_options();
  core::Orchestrator dice(std::move(blueprint), options);
  if (!dice.bootstrap()) {
    std::puts("live system failed to converge");
    return 1;
  }
  std::printf("live system converged: %zu routes across %zu routers\n",
              dice.live().total_loc_rib_routes(), dice.live().size());

  // 3. One exploration episode with the concolic input generator.
  core::ConcolicStrategy strategy;
  const core::EpisodeResult episode = dice.run_episode(strategy);

  std::printf("episode %llu: explorer=r%u snapshot=%llu inputs=%zu clones=%zu\n",
              static_cast<unsigned long long>(episode.episode), episode.explorer,
              static_cast<unsigned long long>(episode.snapshot_id),
              episode.inputs_subjected, episode.clones_run);
  std::printf("stage timings: snapshot %.2fms, clone %.2fms, explore %.2fms, check %.2fms\n",
              episode.snapshot_ms, episode.clone_ms, episode.explore_ms, episode.check_ms);
  std::printf("concolic: %llu executions, %llu unique paths, %llu branch points\n",
              static_cast<unsigned long long>(strategy.stats().executions),
              static_cast<unsigned long long>(strategy.stats().unique_paths),
              static_cast<unsigned long long>(strategy.stats().branch_points));

  // 4. Report.
  std::printf("\n%s", core::render_fault_table(episode.faults).c_str());
  return 0;
}
