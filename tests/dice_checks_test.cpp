// Focused unit tests for the property-check framework (complementing the
// end-to-end detections in dice_test.cpp).
#include <gtest/gtest.h>

#include <mutex>
#include <string>

#include "bgp/bugs.hpp"
#include "dice/orchestrator.hpp"
#include "explore/pool.hpp"

namespace dice::core {
namespace {

using bgp::make_line;

class ChecksFixture : public ::testing::Test {
 protected:
  ChecksFixture() : system_(make_line(3)) {
    system_.start();
    EXPECT_TRUE(system_.converge());
  }
  System system_;
};

TEST_F(ChecksFixture, CrashCheckCleanRouter) {
  const CrashCheck check;
  const CheckVerdict verdict = check.run(system_.router(0));
  EXPECT_TRUE(verdict.ok);
  EXPECT_EQ(verdict.check, "crash");
  EXPECT_EQ(verdict.counters.at("handler_crashes"), 0u);
}

TEST_F(ChecksFixture, CrashCheckFlagsCrashedRouter) {
  // Inject a bug and a triggering message directly.
  bgp::SystemBlueprint bp = make_line(2);
  bgp::inject_bug(bp, 0, bgp::bugs::kMedOverflow);
  System buggy(std::move(bp));
  buggy.start();
  ASSERT_TRUE(buggy.converge());

  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = bgp::AsPath{{bgp::node_asn(1)}};
  update.attrs.next_hop = bgp::node_address(1);
  update.attrs.med = 0xffffffffU;
  update.nlri.push_back(util::IpPrefix{util::IpAddress{10, 200, 0, 0}, 16});
  buggy.inject_message(1, 0, bgp::encode(bgp::Message{update}).value());
  buggy.converge();

  const CrashCheck check;
  const CheckVerdict verdict = check.run(buggy.router(0));
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.counters.at("handler_crashes"), 1u);
  EXPECT_NE(verdict.summary.find("crash"), std::string::npos);
}

TEST_F(ChecksFixture, OscillationCheckRespectsThreshold) {
  // Flip counters from normal convergence stay below a sane threshold.
  const OscillationCheck strict(2);
  const OscillationCheck lenient(50);
  const CheckVerdict strict_verdict = strict.run(system_.router(1));
  const CheckVerdict lenient_verdict = lenient.run(system_.router(1));
  EXPECT_TRUE(lenient_verdict.ok);
  // Convergence itself flips each prefix once or twice; the strict
  // threshold of 2 may or may not fire — but counters must be reported.
  EXPECT_TRUE(strict_verdict.counters.contains("max_flips"));
  EXPECT_EQ(lenient_verdict.counters.at("threshold"), 50u);
}

TEST_F(ChecksFixture, RouteConsistencyCleanSystem) {
  const RouteConsistencyCheck check;
  for (sim::NodeId id = 0; id < 3; ++id) {
    const CheckVerdict verdict = check.run(system_.router(id));
    EXPECT_TRUE(verdict.ok) << verdict.summary;
    EXPECT_EQ(verdict.counters.at("bad_next_hop"), 0u);
    EXPECT_EQ(verdict.counters.at("own_asn_in_path"), 0u);
  }
}

TEST_F(ChecksFixture, OriginClaimsCoverLocRibAndOwnership) {
  const OriginClaimCheck check;
  const CheckVerdict verdict = check.run(system_.router(1));
  // r1's Loc-RIB holds 3 /16 routes -> 3 exact + 3*8 covering claims.
  EXPECT_EQ(verdict.origin_claims.size(), 27u);
  EXPECT_EQ(verdict.owned_prefix_hashes.size(), 1u);
  EXPECT_EQ(verdict.owned_prefix_hashes[0], hash_prefix(bgp::node_prefix(1)));
  // The claim for r1's own prefix carries r1's ASN.
  bool own_claim_found = false;
  for (const auto& claim : verdict.origin_claims) {
    if (claim.prefix_hash == hash_prefix(bgp::node_prefix(1))) {
      EXPECT_EQ(claim.origin, bgp::node_asn(1));
      own_claim_found = true;
    }
  }
  EXPECT_TRUE(own_claim_found);
}

TEST(ChecksAggregationTest, MultipleViolationsGroupedByOriginAndPrefix) {
  std::vector<CheckVerdict> verdicts(3);
  verdicts[0].node = 0;
  verdicts[0].owned_prefix_hashes = {100};
  verdicts[0].origin_claims = {{100, 65000}};
  verdicts[1].node = 1;
  verdicts[1].origin_claims = {{100, 65009}, {100, 65008}};  // two bad origins
  verdicts[2].node = 2;
  verdicts[2].origin_claims = {{100, 65009}};  // same as node 1's first

  const auto owners = collect_owners(verdicts, {{0, 65000}, {1, 65001}, {2, 65002}});
  const auto violations = aggregate_origin_claims(verdicts, owners);
  ASSERT_EQ(violations.size(), 2u);  // grouped by (prefix, origin)
  // The 65009 violation was observed on two nodes.
  for (const OriginViolation& violation : violations) {
    if (violation.observed_origin == 65009) {
      EXPECT_EQ(violation.observers, (std::vector<sim::NodeId>{1, 2}));
    } else {
      EXPECT_EQ(violation.observed_origin, 65008u);
      EXPECT_EQ(violation.observers, std::vector<sim::NodeId>{1});
    }
  }
}

TEST(ChecksAggregationTest, OwnerClaimingOwnPrefixIsNotAViolation) {
  std::vector<CheckVerdict> verdicts(1);
  verdicts[0].node = 0;
  verdicts[0].owned_prefix_hashes = {100};
  verdicts[0].origin_claims = {{100, 65000}};
  const auto owners = collect_owners(verdicts, {{0, 65000}});
  EXPECT_TRUE(aggregate_origin_claims(verdicts, owners).empty());
}

TEST(ChecksAggregationTest, CheckSystemClassifiesFaultClasses) {
  // Drive check_system directly (unit-level, no episode machinery).
  bgp::SystemBlueprint bp = make_line(2);
  bgp::inject_hijack(bp, 0, 1);
  Orchestrator dice(std::move(bp), {});
  ASSERT_TRUE(dice.bootstrap());
  auto faults = dice.check_system(dice.live(), /*episode=*/1, /*explorer=*/0,
                                  /*input=*/{}, /*quiesced=*/true);
  ASSERT_FALSE(faults.empty());
  for (const FaultReport& fault : faults) {
    EXPECT_EQ(fault.fault_class, FaultClass::kOperatorMistake);
    EXPECT_FALSE(fault.potential);  // no input: standing fault
    EXPECT_EQ(fault.episode, 1u);
  }
  // Non-quiescence reports a policy conflict.
  auto nq_faults = dice.check_system(dice.live(), 2, 0, {}, /*quiesced=*/false);
  bool saw_non_quiescence = false;
  for (const FaultReport& fault : nq_faults) {
    saw_non_quiescence |= fault.check == "non-quiescence" &&
                          fault.fault_class == FaultClass::kPolicyConflict;
  }
  EXPECT_TRUE(saw_non_quiescence);
}

// --- clean-node rules (NodeImplementation::clean_checkpoint) --------------

[[nodiscard]] bgp::UpdateMessage crafted_update(sim::NodeId from) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = bgp::AsPath{{bgp::node_asn(from)}};
  update.attrs.next_hop = bgp::node_address(from);
  update.nlri.push_back(util::IpPrefix{util::IpAddress{10, 200, 0, 0}, 16});
  return update;
}

/// A converged 3-router line on one engine, its first prepared cut, and a
/// clone restored from it.
class CleanNodeTest : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] bgp::SystemBlueprint blueprint() const {
    bgp::SystemBlueprint bp = make_line(3);
    for (std::size_t i = 0; i < bp.size(); ++i) bp.set_implementation(i, GetParam());
    bgp::inject_bug(bp, 1, bgp::bugs::kMedOverflow);
    return bp;
  }

  void SetUp() override {
    prototype_ = std::make_shared<const SystemPrototype>(blueprint());
    live_ = std::make_unique<System>(prototype_);
    live_->start();
    ASSERT_TRUE(live_->converge());
    const snapshot::SnapshotId id = live_->take_snapshot(0);
    ASSERT_NE(id, 0u);
    prepared_ = live_->prepare_snapshot(id);
    ASSERT_NE(prepared_, nullptr);
    clone_ = std::make_unique<System>(prototype_);
    restore();
  }

  void restore() { ASSERT_TRUE(clone_->reset_from(*prepared_)); }

  [[nodiscard]] bool clean(sim::NodeId node) const {
    const auto checkpoint = clone_->router(node).clean_checkpoint();
    return checkpoint != nullptr && checkpoint == prepared_->nodes().at(node).state;
  }

  std::shared_ptr<const SystemPrototype> prototype_;
  std::unique_ptr<System> live_;
  std::shared_ptr<const snapshot::PreparedSnapshot> prepared_;
  std::unique_ptr<System> clone_;
};

TEST_P(CleanNodeTest, NeverAppliedNodeIsDirty) {
  for (sim::NodeId node = 0; node < 3; ++node) {
    EXPECT_EQ(live_->router(node).clean_checkpoint(), nullptr) << "node " << node;
  }
}

TEST_P(CleanNodeTest, ApplyLeavesCleanAndFlipClearKeepsIt) {
  for (sim::NodeId node = 0; node < 3; ++node) EXPECT_TRUE(clean(node)) << "node " << node;
  for (sim::NodeId node = 0; node < 3; ++node) clone_->router(node).reset_flip_counters();
  for (sim::NodeId node = 0; node < 3; ++node) EXPECT_TRUE(clean(node)) << "node " << node;
  // A converged cut has nothing in flight: converging changes nothing.
  clone_->converge();
  for (sim::NodeId node = 0; node < 3; ++node) EXPECT_TRUE(clean(node)) << "node " << node;
}

TEST_P(CleanNodeTest, InjectedUpdateDirties) {
  clone_->inject_message(0, 1, bgp::encode(bgp::Message{crafted_update(0)}).value());
  clone_->converge();
  EXPECT_FALSE(clean(1));
}

TEST_P(CleanNodeTest, SessionResetDirties) {
  clone_->router(1).reset_session(2);
  EXPECT_FALSE(clean(1));
}

TEST_P(CleanNodeTest, HandlerCrashDirties) {
  bgp::UpdateMessage update = crafted_update(0);
  update.attrs.med = 0xffffffffU;  // trips kMedOverflow on node 1
  clone_->inject_message(0, 1, bgp::encode(bgp::Message{update}).value());
  clone_->converge();
  ASSERT_EQ(clone_->router(1).stats().handler_crashes, 1u);
  EXPECT_FALSE(clean(1));
}

TEST_P(CleanNodeTest, ResetForReuseDirtiesUntilNextApply) {
  clone_->router(2).reset_for_reuse();
  EXPECT_FALSE(clean(2));
  restore();
  EXPECT_TRUE(clean(2));
}

TEST_P(CleanNodeTest, FreedCheckpointIsDirty) {
  // reset_from_raw applies a temporary PreparedSnapshot and drops it.
  const snapshot::SnapshotId id = live_->take_snapshot(0);
  ASSERT_NE(id, 0u);
  ASSERT_TRUE(clone_->reset_from_raw(*live_->snapshots().find(id)));
  for (sim::NodeId node = 0; node < 3; ++node) {
    EXPECT_EQ(clone_->router(node).clean_checkpoint(), nullptr) << "node " << node;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, CleanNodeTest, ::testing::Values("bgp", "fsm"));

// --- incremental check == full check, clone by clone ------------------------

struct AuditTally {
  std::mutex mutex;
  std::size_t clones = 0;
  std::size_t faults = 0;
  std::size_t divergences = 0;
  std::size_t mismatches = 0;
  std::size_t clean_nodes = 0;
  std::size_t dirty_nodes = 0;
  std::string first_mismatch;
};

/// Runs `episodes` grammar episodes over `blueprint` on a 4-worker pool,
/// checking every clone both ways.
void audit_incremental_check(bgp::SystemBlueprint blueprint, std::size_t episodes,
                             AuditTally& tally) {
  DiceOptions options;
  options.inputs_per_episode = 24;
  Orchestrator dice(std::move(blueprint), options);
  (void)dice.bootstrap();
  System& live = dice.live();
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xc1ea);
  explore::ExplorePool pool(4);

  const explore::CheckFn check = [&](System& clone, const explore::CloneTask& task,
                                     bool quiesced) {
    std::size_t clean = 0;
    for (std::size_t i = 0; i < clone.size(); ++i) {
      clean += clone.router(static_cast<sim::NodeId>(i)).clean_checkpoint() != nullptr;
    }
    std::vector<FaultReport> incremental =
        dice.check_system(clone, task.episode, task.explorer, task.input, quiesced);
    const std::vector<FaultReport> full =
        dice.check_system_full(clone, task.episode, task.explorer, task.input, quiesced);
    const std::lock_guard<std::mutex> lock(tally.mutex);
    ++tally.clones;
    tally.faults += full.size();
    for (const FaultReport& fault : full) {
      tally.divergences += fault.fault_class == FaultClass::kImplementationDivergence;
    }
    tally.clean_nodes += clean;
    tally.dirty_nodes += clone.size() - clean;
    if (incremental != full) {
      if (tally.mismatches++ == 0) {
        tally.first_mismatch = "episode " + std::to_string(task.episode) + " task " +
                               std::to_string(task.index) + ": " +
                               std::to_string(incremental.size()) + " vs " +
                               std::to_string(full.size()) + " faults";
      }
    }
    return incremental;
  };

  for (std::uint64_t episode = 1; episode <= episodes; ++episode) {
    const sim::NodeId explorer = dice.next_explorer();
    const snapshot::SnapshotId id = live.take_snapshot(explorer);
    ASSERT_NE(id, 0u);
    const auto prepared = live.prepare_snapshot(id);
    ASSERT_NE(prepared, nullptr);
    strategy.on_episode(live, explorer);
    const std::vector<util::Bytes> inputs = strategy.next_batch(options.inputs_per_episode);
    const std::vector<sim::NodeId> neighbors = live.network().neighbors(explorer);

    std::vector<explore::CloneTask> tasks(inputs.size() + 1);
    for (std::size_t index = 0; index < tasks.size(); ++index) {
      explore::CloneTask& task = tasks[index];
      task.index = index;
      task.prototype = live.prototype();
      task.prepared = prepared;
      task.explorer = explorer;
      task.episode = episode;
      task.event_budget = options.clone_event_budget;
      task.time_budget = options.clone_time_budget;
      task.oscillation_exit_flips = options.oscillation_threshold;
      task.baseline = index == 0;
      if (index > 0) {
        task.input = inputs[index - 1];
        if (!neighbors.empty()) task.inject_from = neighbors[(index - 1) % neighbors.size()];
      }
    }
    pool.run_batch(tasks.size(), [&](std::size_t index, std::size_t worker) {
      (void)explore::run_clone_task(tasks[index], check, pool.arena(worker));
    });
    live.snapshots().trim(1);
  }
}

TEST(IncrementalCheckTest, EqualsFullCheckOnTopology27HijackAndCrashBug) {
  bgp::SystemBlueprint blueprint = bgp::make_internet();
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);
  AuditTally tally;
  audit_incremental_check(std::move(blueprint), /*episodes=*/4, tally);
  EXPECT_EQ(tally.clones, 4u * 25u);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_GT(tally.faults, 0u);
  // Both halves of the rule are exercised: clean reuse and dirty compute.
  EXPECT_GT(tally.clean_nodes, 0u);
  EXPECT_GT(tally.dirty_nodes, 0u);
}

TEST(IncrementalCheckTest, EqualsFullCheckOnMixedRingWithDecisionDefect) {
  bgp::SystemBlueprint blueprint = bgp::make_ring(6);
  for (std::size_t node = 1; node < blueprint.size(); node += 2) {
    blueprint.set_implementation(node, "fsm");
  }
  bgp::inject_bug(blueprint, /*node=*/3, bgp::bugs::kLongPathPreferred);
  AuditTally tally;
  audit_incremental_check(std::move(blueprint), /*episodes=*/4, tally);
  EXPECT_EQ(tally.clones, 4u * 25u);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_GT(tally.divergences, 0u);
  EXPECT_GT(tally.clean_nodes, 0u);
  EXPECT_GT(tally.dirty_nodes, 0u);
}

}  // namespace
}  // namespace dice::core
