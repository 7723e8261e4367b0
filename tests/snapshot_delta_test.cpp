// Delta checkpoints: snapshot cost scales with churn, not topology size —
// and NOTHING observable moves. The receipts: (1) a zero-churn snapshot
// writes one byte per node and resolves to the baseline's decoded objects
// (pointer-shared, not re-decoded); (2) churn re-encodes only the churned
// nodes; (3) the Orchestrator's delta path reproduces the committed
// topology27 fault-set hash 63f680b04458c2a9 at workers 1, 2, 4 and 8;
// (4) a delta stream against a missing or wrong baseline fails with the
// stable codes, never a silent wrong restore; (5) streams in the retired
// fixed-width format are refused by both engines with one typed code.
#include <gtest/gtest.h>

#include <vector>

#include "bgp/checkpoint_codec.hpp"
#include "dice/orchestrator.hpp"
#include "dice/system.hpp"
#include "svc/soak_service.hpp"

namespace dice::snapshot {
namespace {

using bgp::make_internet;
using core::DiceOptions;
using core::GrammarStrategy;
using core::Orchestrator;
using core::System;

/// The committed cross-PR determinism receipt (see docs/DETERMINISM.md).
constexpr std::uint64_t kTopology27FaultHash = 0x63f680b04458c2a9ULL;

[[nodiscard]] bool is_delta(const Checkpoint& checkpoint) {
  return checkpoint.state.size() == 1 &&
         checkpoint.state[0] == kCheckpointSameAsBaseline;
}

/// The 27-router internet on one engine mix: every node "bgp", every node
/// "fsm", or "fsm" on the even nodes. The delta lineage is one helper both
/// engines compose, so each mix must ride it identically.
class SnapshotDeltaTest : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] bgp::SystemBlueprint blueprint() const {
    bgp::SystemBlueprint bp = make_internet();
    for (std::size_t i = 0; i < bp.size(); ++i) {
      if (GetParam() == "mixed") {
        if (i % 2 == 0) bp.set_implementation(i, "fsm");
      } else {
        bp.set_implementation(i, GetParam());
      }
    }
    return bp;
  }
};

TEST_P(SnapshotDeltaTest, ZeroChurnSecondSnapshotIsOneBytePerNode) {
  System system(blueprint());  // 27 routers
  system.set_delta_checkpoints(true);
  system.start();
  ASSERT_TRUE(system.converge());

  const SnapshotId first = system.take_snapshot(0);
  ASSERT_NE(first, 0u);
  const auto baseline = system.prepare_snapshot(first);
  ASSERT_NE(baseline, nullptr);
  const std::size_t full_bytes = system.snapshots().find(first)->total_state_bytes();

  // Nothing happened between the cuts (the marker sweep itself does not
  // mutate checkpointed router state), so EVERY node rides the delta.
  const SnapshotId second = system.take_snapshot(0);
  ASSERT_NE(second, 0u);
  const Snapshot* raw = system.snapshots().find(second);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->baseline_id, first);
  for (const auto& [node, checkpoint] : raw->nodes) {
    EXPECT_TRUE(is_delta(checkpoint)) << "node " << node << " re-encoded in full";
  }
  EXPECT_EQ(raw->total_state_bytes(), raw->nodes.size());
  EXPECT_LT(raw->total_state_bytes(), full_bytes / 10);

  // Resolution shares the baseline's decoded objects — same pointers, same
  // hashes, same cut fingerprint as the full encode.
  const auto prepared = system.prepare_snapshot(second);
  ASSERT_NE(prepared, nullptr);
  ASSERT_EQ(prepared->nodes().size(), baseline->nodes().size());
  for (const auto& [node, entry] : prepared->nodes()) {
    const auto& base = baseline->nodes().at(node);
    EXPECT_EQ(entry.state.get(), base.state.get()) << "node " << node;
    EXPECT_EQ(entry.hash, base.hash) << "node " << node;
  }
}

TEST_P(SnapshotDeltaTest, ChurnReencodesOnlyChurnedNodesAndRestoresIdentically) {
  // Two systems of the same blueprint run the identical deterministic
  // script; only the checkpoint encoding differs. The delta cut must carry
  // the same per-node state as the full cut, byte-for-byte after restore.
  const auto script = [](System& system, bool delta) -> SnapshotId {
    system.set_delta_checkpoints(delta);
    system.start();
    EXPECT_TRUE(system.converge());
    const SnapshotId baseline_id = system.take_snapshot(0);
    EXPECT_NE(baseline_id, 0u);
    EXPECT_NE(system.prepare_snapshot(baseline_id), nullptr);
    // Churn one router: a session reset dirties it immediately; the second
    // cut follows before the teardown propagates far.
    const sim::NodeId churned = 12;
    system.router(churned).reset_session(system.network().neighbors(churned).front());
    return system.take_snapshot(0);
  };

  System with_delta(blueprint());
  System full_only(blueprint());
  const SnapshotId delta_id = script(with_delta, true);
  const SnapshotId full_id = script(full_only, false);
  ASSERT_NE(delta_id, 0u);
  ASSERT_NE(full_id, 0u);
  const Snapshot* delta_raw = with_delta.snapshots().find(delta_id);
  const Snapshot* full_raw = full_only.snapshots().find(full_id);
  ASSERT_NE(delta_raw, nullptr);
  ASSERT_NE(full_raw, nullptr);

  std::size_t full_nodes = 0;
  for (const auto& [node, checkpoint] : delta_raw->nodes) {
    if (!is_delta(checkpoint)) ++full_nodes;
  }
  EXPECT_GE(full_nodes, 1u);  // the churned node must re-encode...
  EXPECT_FALSE(is_delta(delta_raw->nodes.at(12)));
  // ...and churn must stay local: far fewer full encodes than nodes.
  EXPECT_LT(full_nodes, delta_raw->nodes.size() / 2);
  EXPECT_LT(delta_raw->total_state_bytes(), full_raw->total_state_bytes() / 2)
      << "delta cut did not shrink";

  // Same cut fingerprint (hashes are always full-state hashes) and
  // byte-identical restored state on both paths.
  EXPECT_EQ(delta_raw->cut_hash(), full_raw->cut_hash());
  const auto delta_prepared = with_delta.prepare_snapshot(delta_id);
  const auto full_prepared = full_only.prepare_snapshot(full_id);
  ASSERT_NE(delta_prepared, nullptr);
  ASSERT_NE(full_prepared, nullptr);
  System delta_clone(with_delta.prototype());
  System full_clone(full_only.prototype());
  ASSERT_TRUE(delta_clone.reset_from(*delta_prepared).ok());
  ASSERT_TRUE(full_clone.reset_from(*full_prepared).ok());
  for (std::size_t i = 0; i < delta_clone.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(delta_clone.router(node).state_hash(), full_clone.router(node).state_hash())
        << "restore diverged at node " << i;
  }
}

TEST_P(SnapshotDeltaTest, ResetForReuseBreaksTheLineage) {
  // reset_for_reuse() forgets which snapshot the node last encoded into, so
  // the next encode against that snapshot writes a full stream even where
  // a delta was legal just before the reset. ROADMAP item 2 (warm-restart
  // delta) changes this on purpose: a resumed cut becomes the baseline.
  System system(blueprint());
  system.set_delta_checkpoints(true);
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId first = system.take_snapshot(0);
  ASSERT_NE(first, 0u);
  const SnapshotId probe = first + 1;
  for (std::size_t i = 0; i < system.size(); ++i) {
    bgp::NodeImplementation& node = system.router(static_cast<sim::NodeId>(i));
    util::ByteWriter quiet;
    (void)node.encode_checkpoint(quiet, probe, first);
    ASSERT_EQ(quiet.size(), 1u) << "node " << i << " had no delta before the reset";

    node.reset_for_reuse();
    util::ByteWriter after;
    (void)node.encode_checkpoint(after, probe + 1, probe);
    ASSERT_GT(after.size(), 1u) << "node " << i;
    EXPECT_EQ(after.span()[0], bgp::ckpt::kFormatV2) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, SnapshotDeltaTest,
                         ::testing::Values("bgp", "fsm", "mixed"),
                         [](const auto& info) { return info.param; });

TEST(SnapshotDeltaTest, MissingOrWrongBaselineIsRejectedNotMisrestored) {
  System system(make_internet({2, 3, 4}));
  system.set_delta_checkpoints(true);
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId first = system.take_snapshot(0);
  ASSERT_NE(system.prepare_snapshot(first), nullptr);
  const SnapshotId second = system.take_snapshot(0);
  const Snapshot* raw = system.snapshots().find(second);
  ASSERT_NE(raw, nullptr);
  ASSERT_EQ(raw->baseline_id, first);

  const auto resolver = [&](sim::NodeId node) -> const Checkpointable* {
    return node < system.size() ? &system.router(node) : nullptr;
  };
  // No baseline at all.
  auto no_baseline = PreparedSnapshot::build(*raw, resolver, nullptr);
  ASSERT_FALSE(no_baseline.ok());
  EXPECT_EQ(no_baseline.error().code, "prepared.delta.baseline_mismatch");
  // The raw restore builds exactly that baseline-less form, so it refuses
  // the delta cut the same way.
  System fresh(system.blueprint());
  const util::Status raw_restore = fresh.reset_from_raw(*raw);
  ASSERT_FALSE(raw_restore.ok());
  EXPECT_EQ(raw_restore.error().code, "prepared.delta.baseline_mismatch");

  // A baseline with the wrong id (the delta snapshot itself, prepared).
  const auto wrong = system.prepare_snapshot(second);
  ASSERT_NE(wrong, nullptr);
  ASSERT_NE(wrong->id(), first);
  auto wrong_baseline = PreparedSnapshot::build(*raw, resolver, wrong.get());
  ASSERT_FALSE(wrong_baseline.ok());
  EXPECT_EQ(wrong_baseline.error().code, "prepared.delta.baseline_mismatch");

  // A delta envelope must never reach the byte decoder either.
  util::Bytes envelope{kCheckpointSameAsBaseline};
  util::ByteReader reader(envelope);
  auto direct = system.router(0).parse(reader);
  ASSERT_FALSE(direct.ok());
  EXPECT_EQ(direct.error().code, "router.restore.delta_unresolved");
}

TEST(SnapshotDeltaTest, RetiredFixedWidthStreamIsRefusedByBothEngines) {
  // The retired fixed-width format began with 0x00 (high byte of a u32
  // session count); 0x01 was never assigned. Both engines refuse either
  // first byte with the same typed code instead of guessing a layout.
  bgp::SystemBlueprint blueprint = make_internet({2, 3, 4});
  blueprint.set_implementation(1, "fsm");
  System system(std::move(blueprint));
  ASSERT_EQ(system.router(0).implementation_id(), "bgp");
  ASSERT_EQ(system.router(1).implementation_id(), "fsm");
  for (const std::uint8_t head : {std::uint8_t{0x00}, std::uint8_t{0x01}}) {
    const util::Bytes stream(20, head);
    for (const sim::NodeId node : {sim::NodeId{0}, sim::NodeId{1}}) {
      util::ByteReader reader(stream);
      auto decoded = system.router(node).parse(reader);
      ASSERT_FALSE(decoded.ok()) << "node " << node << " head " << int{head};
      EXPECT_EQ(decoded.error().code, "router.restore.unknown_format")
          << "node " << node << " head " << int{head};
    }
  }
}

// ---------------------------------------------------------------------------
// The acceptance pin: delta path, workers 1/2/4/8, one literal hash
// ---------------------------------------------------------------------------

[[nodiscard]] std::uint64_t topology27_hash(std::size_t workers) {
  bgp::SystemBlueprint blueprint = make_internet();  // 27 routers
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);

  DiceOptions options;
  options.inputs_per_episode = 32;
  options.parallelism = workers;
  Orchestrator dice(std::move(blueprint), options);
  EXPECT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.05, /*rng_seed=*/0xf1f1);
  std::size_t delta_nodes = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    delta_nodes += dice.run_episode(strategy).snapshot_delta_nodes;
  }
  // Episode 1 has no baseline (all full); episode 2 deltas the quiet nodes.
  EXPECT_GT(delta_nodes, 0u) << "delta path never engaged";
  return svc::fault_set_hash(dice.all_faults());
}

TEST(SnapshotDeltaTest, Topology27FaultHashPinnedOnDeltaPathAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(topology27_hash(workers), kTopology27FaultHash) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace dice::snapshot
