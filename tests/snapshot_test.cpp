#include <gtest/gtest.h>

#include <memory>

#include "dice/system.hpp"

namespace dice::snapshot {
namespace {

using bgp::make_internet;
using bgp::make_line;
using bgp::node_prefix;
using core::System;

// A fresh System of `blueprint` re-seeded from the raw cut `snap`; nullptr
// when the restore fails.
[[nodiscard]] std::unique_ptr<System> restore(const bgp::SystemBlueprint& blueprint,
                                              const Snapshot& snap) {
  auto clone = std::make_unique<System>(blueprint);
  if (!clone->reset_from_raw(snap)) return nullptr;
  return clone;
}

TEST(SnapshotTest, ConvergedSystemSnapshotIsCompleteAndQuiet) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());

  const SnapshotId id = system.take_snapshot(0);
  ASSERT_NE(id, 0u);
  const Snapshot* snap = system.snapshots().find(id);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->nodes.size(), 3u);
  // Converged system: nothing in flight at the cut.
  EXPECT_EQ(snap->total_in_flight(), 0u);
  EXPECT_GT(snap->total_state_bytes(), 0u);
  for (const auto& [node, checkpoint] : snap->nodes) {
    EXPECT_EQ(checkpoint.node, node);
    EXPECT_NE(checkpoint.hash, 0u);
  }
}

TEST(SnapshotTest, LiveSystemKeepsRunningAfterSnapshot) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  const std::size_t routes_before = system.total_loc_rib_routes();
  ASSERT_NE(system.take_snapshot(1), 0u);
  // The live system still converges and lost nothing.
  ASSERT_TRUE(system.converge());
  EXPECT_EQ(system.total_loc_rib_routes(), routes_before);
  EXPECT_EQ(system.established_sessions(), 4u);
}

TEST(SnapshotTest, CloneMatchesLiveStateExactly) {
  System system(make_internet({2, 3, 4}));
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId id = system.take_snapshot(0);
  ASSERT_NE(id, 0u);
  const Snapshot* snap = system.snapshots().find(id);

  auto clone = restore(system.blueprint(), *snap);
  ASSERT_NE(clone, nullptr);
  // Clone converges instantly (nothing in flight) to the exact live state.
  ASSERT_TRUE(clone->converge());
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(clone->router(node).loc_rib().content_hash(),
              system.router(node).loc_rib().content_hash())
        << "clone diverged at node " << i;
  }
}

TEST(SnapshotTest, MidConvergenceSnapshotCapturesInFlightAndCloneCatchesUp) {
  // Take the snapshot while UPDATEs are still flying: the cut must capture
  // channel state, and the clone — replaying it — must converge to the
  // same fixpoint the live system reaches.
  System system(make_internet({2, 3, 4}));
  system.start();
  // Run only part of the way to convergence.
  system.simulator().run(400);
  const SnapshotId id = system.take_snapshot(2);
  ASSERT_NE(id, 0u);
  const Snapshot* snap = system.snapshots().find(id);
  ASSERT_NE(snap, nullptr);

  auto clone = restore(system.blueprint(), *snap);
  ASSERT_NE(clone, nullptr);
  ASSERT_TRUE(clone->converge());
  ASSERT_TRUE(system.converge());
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(clone->router(node).loc_rib().content_hash(),
              system.router(node).loc_rib().content_hash())
        << "clone fixpoint diverged at node " << i;
  }
}

TEST(SnapshotTest, CloneIsIsolatedFromLive) {
  System system(make_line(2));
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId id = system.take_snapshot(0);
  auto clone = restore(system.blueprint(), *system.snapshots().find(id));
  ASSERT_NE(clone, nullptr);

  // Perturb the clone: kill a session. The live system must not notice.
  clone->router(0).set_auto_restart(false);
  clone->router(1).set_auto_restart(false);
  clone->router(0).reset_session(1);
  clone->converge();
  EXPECT_EQ(clone->router(0).loc_rib().find(node_prefix(1)), nullptr);
  EXPECT_NE(system.router(0).loc_rib().find(node_prefix(1)), nullptr);
  EXPECT_TRUE(system.bgp_router(0).session(1)->established());
}

TEST(SnapshotTest, SequentialSnapshotsOfStableSystemAgree) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId first = system.take_snapshot(0);
  ASSERT_TRUE(system.converge());
  const SnapshotId second = system.take_snapshot(2);  // different initiator
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);
  const Snapshot* a = system.snapshots().find(first);
  const Snapshot* b = system.snapshots().find(second);
  // Same stable state -> identical per-node checkpoint hashes.
  for (const auto& [node, checkpoint] : a->nodes) {
    EXPECT_EQ(checkpoint.hash, b->nodes.at(node).hash);
  }
}

TEST(SnapshotTest, TwoClonesOfOneSnapshotAreIdentical) {
  // Clone determinism: same snapshot -> byte-identical system states, even
  // after both clones run to quiescence independently.
  System system(make_internet({2, 3, 4}));
  system.start();
  system.simulator().run(300);  // mid-convergence: in-flight frames exist
  const SnapshotId id = system.take_snapshot(1);
  ASSERT_NE(id, 0u);
  const Snapshot* snap = system.snapshots().find(id);

  auto clone_a = restore(system.blueprint(), *snap);
  auto clone_b = restore(system.blueprint(), *snap);
  ASSERT_NE(clone_a, nullptr);
  ASSERT_NE(clone_b, nullptr);
  ASSERT_TRUE(clone_a->converge());
  ASSERT_TRUE(clone_b->converge());
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(clone_a->router(node).state_hash(), clone_b->router(node).state_hash())
        << "clone divergence at node " << i;
  }
}

TEST(SnapshotTest, CloneOfCloneMatchesOriginal) {
  // Snapshots compose: snapshotting a converged clone and cloning again
  // preserves the state (idempotent re-materialization).
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId first = system.take_snapshot(0);
  auto clone = restore(system.blueprint(), *system.snapshots().find(first));
  ASSERT_NE(clone, nullptr);
  ASSERT_TRUE(clone->converge());

  const SnapshotId second = clone->take_snapshot(1);
  ASSERT_NE(second, 0u);
  auto grandclone = restore(clone->blueprint(), *clone->snapshots().find(second));
  ASSERT_NE(grandclone, nullptr);
  ASSERT_TRUE(grandclone->converge());
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(grandclone->router(node).loc_rib().content_hash(),
              system.router(node).loc_rib().content_hash());
  }
}

TEST(SnapshotTest, AbortedSnapshotDoesNotBlockNextOne) {
  System system(make_line(2));
  system.start();
  ASSERT_TRUE(system.converge());
  system.network().set_link_up(0, 1, false);
  EXPECT_EQ(system.take_snapshot(0), 0u);  // markers cannot cross
  system.network().set_link_up(0, 1, true);
  ASSERT_TRUE(system.converge());
  EXPECT_NE(system.take_snapshot(0), 0u);  // abort cleaned up participant state
}

TEST(SnapshotTest, StoreTrimKeepsMostRecent) {
  SnapshotStore store;
  for (int i = 0; i < 5; ++i) {
    Snapshot snap;
    snap.id = store.next_id();
    store.put(std::move(snap));
  }
  EXPECT_EQ(store.size(), 5u);
  store.trim(2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_NE(store.find(5), nullptr);
}

TEST(SnapshotTest, CutHashDetectsDifferences) {
  System system(make_line(2));
  system.start();
  ASSERT_TRUE(system.converge());
  const SnapshotId a = system.take_snapshot(0);

  // Change state: drop a session, reconverge, snapshot again.
  system.router(0).set_auto_restart(false);
  system.router(1).set_auto_restart(false);
  system.router(0).reset_session(1);
  ASSERT_TRUE(system.converge());
  const SnapshotId b = system.take_snapshot(0);

  EXPECT_NE(system.snapshots().find(a)->cut_hash(), system.snapshots().find(b)->cut_hash());
}

}  // namespace
}  // namespace dice::snapshot
