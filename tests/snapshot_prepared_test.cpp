// PreparedSnapshot and clone-arena reuse: a reset must reproduce the cut's
// per-node checkpoint hashes, agree with a raw-cut restore of a fresh
// System (same state hashes, same fixpoints), decode each checkpoint
// exactly once, and keep prepared state alive through the shared_ptr
// handle even while the store trims entries concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dice/system.hpp"
#include "explore/arena.hpp"

namespace dice::snapshot {
namespace {

using bgp::make_internet;
using bgp::make_line;
using core::System;
using core::SystemPrototype;

[[nodiscard]] std::shared_ptr<const PreparedSnapshot> snapshot_and_prepare(
    System& system, sim::NodeId initiator, SnapshotId* id_out = nullptr) {
  const SnapshotId id = system.take_snapshot(initiator);
  EXPECT_NE(id, 0u);
  if (id_out != nullptr) *id_out = id;
  return system.prepare_snapshot(id);
}

TEST(PreparedSnapshotTest, BuildMatchesRawSnapshotAndDecodesOncePerNode) {
  System system(make_internet({2, 3, 4}));
  system.start();
  ASSERT_TRUE(system.converge());

  const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
  SnapshotId id = 0;
  const auto prepared = snapshot_and_prepare(system, 0, &id);
  ASSERT_NE(prepared, nullptr);
  const Snapshot* raw = system.snapshots().find(id);
  ASSERT_NE(raw, nullptr);

  EXPECT_EQ(prepared->id(), id);
  EXPECT_EQ(prepared->cut_hash(), raw->cut_hash());
  EXPECT_EQ(prepared->state_bytes(), raw->total_state_bytes());
  EXPECT_EQ(prepared->nodes().size(), raw->nodes.size());
  for (const auto& [node, entry] : prepared->nodes()) {
    EXPECT_EQ(entry.hash, raw->nodes.at(node).hash);
    EXPECT_NE(entry.state, nullptr);
  }
  // One decode per node, exactly once.
  EXPECT_EQ(bgp::checkpoint_decode_count() - decodes_before, raw->nodes.size());

  // Idempotent: a second prepare returns the published form, no re-decode.
  const auto again = system.prepare_snapshot(id);
  EXPECT_EQ(again.get(), prepared.get());
  EXPECT_EQ(bgp::checkpoint_decode_count() - decodes_before, raw->nodes.size());
}

TEST(PreparedSnapshotTest, ResetFromMatchesTheCutAndRawRestore) {
  // Mid-convergence cut: in-flight frames exist, so this exercises both the
  // typed checkpoint application and the pre-built frame schedule.
  auto prototype = std::make_shared<const SystemPrototype>(make_internet({2, 3, 4}));
  System live(prototype);
  live.start();
  live.simulator().run(400);
  SnapshotId id = 0;
  const auto prepared = snapshot_and_prepare(live, 2, &id);
  ASSERT_NE(prepared, nullptr);
  const Snapshot* raw = live.snapshots().find(id);

  System raw_clone(live.blueprint());
  ASSERT_TRUE(raw_clone.reset_from_raw(*raw).ok());
  System arena_clone(prototype);
  ASSERT_TRUE(arena_clone.reset_from(*prepared).ok());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(arena_clone.router(node).state_hash(), raw->nodes.at(node).hash)
        << "restore missed the cut at node " << i;
  }

  // Identical immediately after restore...
  for (std::size_t i = 0; i < live.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(arena_clone.router(node).state_hash(), raw_clone.router(node).state_hash())
        << "restore diverged at node " << i;
  }
  // ...and after replaying the in-flight frames to quiescence.
  ASSERT_TRUE(raw_clone.converge());
  ASSERT_TRUE(arena_clone.converge());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(arena_clone.router(node).state_hash(), raw_clone.router(node).state_hash())
        << "fixpoint diverged at node " << i;
  }
  // The decoded form restores without touching the byte decoders again.
  const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
  System another(prototype);
  ASSERT_TRUE(another.reset_from(*prepared).ok());
  EXPECT_EQ(bgp::checkpoint_decode_count(), decodes_before);
}

TEST(PreparedSnapshotTest, ArenaReuseIsIndistinguishableFromFreshClone) {
  // Run a clone to quiescence, dirty it further, then reset the same
  // instance from a different snapshot: every trace of the previous run
  // must be gone (state hash, stats, sim clock).
  auto prototype = std::make_shared<const SystemPrototype>(make_line(3));
  System live(prototype);
  live.start();
  ASSERT_TRUE(live.converge());
  const auto prepared_a = snapshot_and_prepare(live, 0);
  ASSERT_NE(prepared_a, nullptr);

  // Change live state and take a second, different snapshot.
  live.router(0).set_auto_restart(false);
  live.router(1).set_auto_restart(false);
  live.router(0).reset_session(1);
  ASSERT_TRUE(live.converge());
  const auto prepared_b = snapshot_and_prepare(live, 2);
  ASSERT_NE(prepared_b, nullptr);
  ASSERT_NE(prepared_a->cut_hash(), prepared_b->cut_hash());

  explore::CloneArena arena;
  bool reused = false;
  core::System* first = arena.acquire(prototype, *prepared_a, reused).value_or(nullptr);
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(reused);
  ASSERT_TRUE(first->converge());
  first->router(0).reset_session(1);  // dirty the arena beyond the snapshot
  first->converge(10'000);

  // A reset applies the already-decoded cut: it decodes no checkpoint.
  const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
  core::System* second = arena.acquire(prototype, *prepared_b, reused).value_or(nullptr);
  EXPECT_EQ(bgp::checkpoint_decode_count(), decodes_before);
  ASSERT_NE(second, nullptr);
  EXPECT_TRUE(reused);
  EXPECT_EQ(second, first);  // same instance, reused
  EXPECT_EQ(second->simulator().now(), 0u);

  System reference(prototype);
  ASSERT_TRUE(reference.reset_from(*prepared_b).ok());
  ASSERT_TRUE(second->converge());
  ASSERT_TRUE(reference.converge());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(second->router(node).state_hash(), reference.router(node).state_hash())
        << "arena reuse leaked state at node " << i;
    EXPECT_EQ(second->router(node).stats().handler_crashes, 0u);
  }
}

TEST(PreparedSnapshotTest, ArenaRebuildsWhenPrototypeChanges) {
  auto proto_a = std::make_shared<const SystemPrototype>(make_line(2));
  auto proto_b = std::make_shared<const SystemPrototype>(make_line(3));
  System live_a(proto_a);
  live_a.start();
  ASSERT_TRUE(live_a.converge());
  System live_b(proto_b);
  live_b.start();
  ASSERT_TRUE(live_b.converge());
  const auto prep_a = snapshot_and_prepare(live_a, 0);
  const auto prep_b = snapshot_and_prepare(live_b, 0);
  ASSERT_NE(prep_a, nullptr);
  ASSERT_NE(prep_b, nullptr);

  explore::CloneArena arena;
  bool reused = true;
  ASSERT_NE(arena.acquire(proto_a, *prep_a, reused).value_or(nullptr), nullptr);
  EXPECT_FALSE(reused);
  core::System* b = arena.acquire(proto_b, *prep_b, reused).value_or(nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(reused);  // different prototype => rebuild
  EXPECT_EQ(b->size(), 3u);
}

TEST(PreparedSnapshotTest, SharedPtrKeepsPreparedAliveAcrossTrim) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  SnapshotId id = 0;
  auto prepared = snapshot_and_prepare(system, 0, &id);
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(system.snapshots().prepared_size(), 1u);

  // Trim everything: the store's entry is gone, but our handle keeps the
  // decoded state (and the frame schedule) alive and usable.
  system.snapshots().trim(0);
  EXPECT_EQ(system.snapshots().prepared_size(), 0u);
  EXPECT_EQ(system.snapshots().find_prepared(id), nullptr);
  EXPECT_EQ(prepared->nodes().size(), 3u);

  System clone(system.prototype());
  ASSERT_TRUE(clone.reset_from(*prepared).ok());
  ASSERT_TRUE(clone.converge());
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(clone.router(node).loc_rib().content_hash(),
              system.router(node).loc_rib().content_hash());
  }
}

TEST(PreparedSnapshotTest, ConcurrentFindPreparedVersusTrim) {
  // Readers resolve prepared handles while a writer churns put/trim/erase:
  // under ASan/TSan this is the lifetime-safety receipt for the shared_ptr
  // publication pattern.
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());

  SnapshotStore& store = system.snapshots();
  std::vector<SnapshotId> ids;
  for (int i = 0; i < 8; ++i) {
    SnapshotId id = 0;
    auto prepared = snapshot_and_prepare(system, static_cast<sim::NodeId>(i % 3), &id);
    ASSERT_NE(prepared, nullptr);
    ids.push_back(id);
    ASSERT_TRUE(system.converge());
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const SnapshotId id : ids) {
          if (auto handle = store.find_prepared(id)) {
            // Touch the decoded state through the handle; a use-after-free
            // here is exactly what the shared_ptr design must prevent.
            resolved.fetch_add(handle->nodes().size(), std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    store.trim(round % 5);
    for (const SnapshotId id : ids) {
      if (round % 3 == 0) store.erase(id);
    }
    // Re-publish so readers keep finding entries.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      Snapshot snap;
      snap.id = ids[i];
      store.put(std::move(snap));
      ASSERT_NE(system.prepare_snapshot(ids[i]), nullptr);
    }
    SnapshotId fresh = 0;
    auto prepared = snapshot_and_prepare(system, 0, &fresh);
    ASSERT_NE(prepared, nullptr);
    ASSERT_TRUE(system.converge());
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  SUCCEED() << "resolved " << resolved.load() << " node states without a lifetime fault";
}

}  // namespace
}  // namespace dice::snapshot
