// Named scenario sets: how blueprints cross the process boundary WITHOUT
// traveling on the wire.
//
// A SystemBlueprint is a deep object graph (topology, policies, per-node
// implementation pins, injected defects); serializing it would add a large
// codec whose only consumer is sharding, and any drift between encoder and
// decoder would silently move fault bytes. Instead the JobSpec names a set,
// and coordinator and worker both resolve that name here — the same
// deterministic construction on both sides of the pipe, so the worker's
// ScenarioMatrix is the identical matrix by construction (the dfuntest
// shape: environments are prepared from a shared recipe, not shipped).
//
// A set is a list of explore::bench_scenario names, so every scenario is
// built by the one construction the in-process callers use too. Adding a
// set: list it in the table in scenario_set.cpp; a new scenario goes into
// explore::bench_scenario, whose construction must be a pure function of
// the name — no randomness, no environment reads — or the cross-process
// determinism receipt (docs/SHARDING.md) breaks.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "explore/matrix.hpp"
#include "util/result.hpp"

namespace dice::shard {

/// Resolves a set name to its scenarios:
///   "bench"       the five bench topologies (explore::kBenchScenarioNames),
///                 exactly explore::default_bench_scenarios().
///   "topology27"  the single receipt scenario: the paper's 27-router
///                 Figure 1 internet with the latent more-specific hijack
///                 (victim 12, attacker 20) and the node-5 community-length
///                 parser bug — the blueprint behind the pinned
///                 `63f680b04458c2a9` hash.
///   "smoke"       two small fast topologies (ring6, bad-gadget) for
///                 multi-cell shard tests.
/// Unknown names fail with "shard.scenario_set.unknown".
[[nodiscard]] util::Result<std::vector<explore::ScenarioSpec>> resolve_scenario_set(
    std::string_view name);

/// Every resolvable name, in table order: a name check that builds no
/// blueprint (ShardOptions::validate) and diagnostics.
[[nodiscard]] std::vector<std::string> scenario_set_names();

}  // namespace dice::shard
