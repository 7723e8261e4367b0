#include "shard/scenario_set.hpp"

#include "bgp/bugs.hpp"
#include "bgp/topology.hpp"

namespace dice::shard {

util::Result<std::vector<explore::ScenarioSpec>> resolve_scenario_set(
    std::string_view name) {
  if (name == "bench") return explore::default_bench_scenarios();
  if (name == "topology27") {
    // Must stay byte-for-byte the receipt construction (svc_soak_test,
    // explore_nested_test): this blueprint is what the pinned
    // 63f680b04458c2a9 hash is measured on.
    bgp::SystemBlueprint fig1 = bgp::make_internet();
    bgp::inject_hijack(fig1, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
    bgp::inject_bug(fig1, /*node=*/5, bgp::bugs::kCommunityLength);
    std::vector<explore::ScenarioSpec> specs;
    specs.push_back({"topology27", std::move(fig1)});
    return specs;
  }
  if (name == "smoke") {
    std::vector<explore::ScenarioSpec> specs;
    specs.push_back({"ring6", bgp::make_ring(6)});
    specs.push_back({"bad-gadget", bgp::make_bad_gadget()});
    return specs;
  }
  return util::make_error("shard.scenario_set.unknown",
                          "no scenario set named '" + std::string(name) + "'");
}

std::vector<std::string> scenario_set_names() { return {"bench", "smoke", "topology27"}; }

}  // namespace dice::shard
