#include "shard/scenario_set.hpp"

#include <span>

namespace dice::shard {

namespace {

struct NamedSet {
  std::string_view name;
  std::span<const std::string_view> scenarios;  ///< explore::bench_scenario names
};

constexpr std::string_view kSmoke[] = {"ring6", "bad-gadget"};
constexpr std::string_view kTopology27[] = {"topology27"};

/// The one set table: resolution and the name list both read it.
constexpr NamedSet kSets[] = {
    {"bench", explore::kBenchScenarioNames},
    {"smoke", kSmoke},
    {"topology27", kTopology27},
};

}  // namespace

util::Result<std::vector<explore::ScenarioSpec>> resolve_scenario_set(
    std::string_view name) {
  for (const NamedSet& set : kSets) {
    if (set.name != name) continue;
    std::vector<explore::ScenarioSpec> specs;
    for (const std::string_view scenario : set.scenarios) {
      specs.push_back(*explore::bench_scenario(scenario));
    }
    return specs;
  }
  return util::make_error("shard.scenario_set.unknown",
                          "no scenario set named '" + std::string(name) + "'");
}

std::vector<std::string> scenario_set_names() {
  std::vector<std::string> names;
  for (const NamedSet& set : kSets) names.emplace_back(set.name);
  return names;
}

}  // namespace dice::shard
