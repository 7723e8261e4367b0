// Unit tests for the parallel exploration subsystem: work-stealing pool
// mechanics, fault-ledger determinism, solver-cache accounting, the
// splittable RNG streams everything relies on, and the copy-on-write
// sharing between a PreparedSnapshot and the arena clones restored from it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "bgp/codec.hpp"
#include "bgp/topology.hpp"
#include "concolic/solver.hpp"
#include "dice/system.hpp"
#include "explore/arena.hpp"
#include "explore/ledger.hpp"
#include "explore/pool.hpp"
#include "explore/solver_cache.hpp"
#include "metrics_delta.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/rng.hpp"

namespace dice::explore {
namespace {

// ---------------------------------------------------------------------------
// util::Rng::fork(stream_id) — the determinism primitive
// ---------------------------------------------------------------------------

TEST(RngForkTest, StreamForkIsConstAndOrderIndependent) {
  const util::Rng root(42);
  util::Rng a = root.fork(3);
  util::Rng b = root.fork(7);
  // Forking never advances the parent, so any order gives the same streams.
  util::Rng b_again = root.fork(7);
  util::Rng a_again = root.fork(3);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next(), a_again.next());
    EXPECT_EQ(b.next(), b_again.next());
  }
}

TEST(RngForkTest, StreamsAreIndependent) {
  const util::Rng root(42);
  util::Rng a = root.fork(0);
  util::Rng b = root.fork(1);
  // Distinct ids must give distinct streams (first outputs already differ).
  EXPECT_NE(a.next(), b.next());
  // And differ from the advancing fork() of a copy.
  util::Rng mut = root;
  util::Rng child = mut.fork();
  EXPECT_NE(root.fork(0).next(), child.next());
}

TEST(RngForkTest, DifferentRootsGiveDifferentStreams) {
  EXPECT_NE(util::Rng(1).fork(5).next(), util::Rng(2).fork(5).next());
}

// ---------------------------------------------------------------------------
// ExplorePool — batch execution and work stealing
// ---------------------------------------------------------------------------

TEST(ExplorePoolTest, SingleWorkerRunsInlineWithoutThreads) {
  ExplorePool pool(1);
  const testutil::CounterDelta delta;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(8, 0);
  pool.run_batch(8, [&](std::size_t task, std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // inline compatibility path
    ++hits[task];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  if (obs::kEnabled) {
    EXPECT_EQ(delta(obs::names::kPoolTasks), 8u);
    EXPECT_EQ(delta(obs::names::kPoolSteals), 0u);
  }
}

TEST(ExplorePoolTest, EveryTaskRunsExactlyOnceAcrossWorkers) {
  ExplorePool pool(4);
  const testutil::CounterDelta delta;
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_batch(kTasks, [&](std::size_t task, std::size_t) { ++hits[task]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  if (obs::kEnabled) {
    EXPECT_EQ(delta(obs::names::kPoolTasks), kTasks);
  }
}

TEST(ExplorePoolTest, WorkStealingUnderSkewedTaskCosts) {
  // Round-robin deals task i to worker i % 2. Every even task (worker 0's
  // deque) is heavy, every odd task trivial — worker 1 drains instantly
  // and must steal from worker 0's backlog to finish the batch.
  ExplorePool pool(2);
  const testutil::CounterDelta delta;
  constexpr std::size_t kTasks = 12;
  std::vector<std::atomic<int>> hits(kTasks);
  std::atomic<std::size_t> stolen{0};  // tasks run off the worker they were dealt to
  pool.run_batch(kTasks, [&](std::size_t task, std::size_t worker) {
    if (task % 2 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (worker != task % 2) ++stolen;
    ++hits[task];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(stolen.load(), 1u);
  if (obs::kEnabled) {
    EXPECT_EQ(delta(obs::names::kPoolSteals), stolen.load());
    EXPECT_EQ(delta(obs::names::kPoolTasks), kTasks);
  }
}

TEST(ExplorePoolTest, BackToBackBatchesDoNotLeakWork) {
  ExplorePool pool(3);
  const testutil::CounterDelta delta;
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.run_batch(7, [&](std::size_t, std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 7);
  }
  if (obs::kEnabled) {
    EXPECT_EQ(delta(obs::names::kPoolTasks), 140u);
    EXPECT_EQ(delta(obs::names::kPoolBatches), 20u);
  }
}

// ---------------------------------------------------------------------------
// FaultLedger — concurrent dedup with serial-order evidence
// ---------------------------------------------------------------------------

[[nodiscard]] core::FaultReport make_report(std::string check, sim::NodeId node,
                                            std::string description) {
  core::FaultReport report;
  report.fault_class = core::FaultClass::kOperatorMistake;
  report.check = std::move(check);
  report.node = node;
  report.description = std::move(description);
  return report;
}

TEST(FaultLedgerTest, DeduplicatesBySignature) {
  FaultLedger ledger;
  EXPECT_TRUE(ledger.record(make_report("route-origin", 1, "stolen prefix"), 10));
  EXPECT_FALSE(ledger.record(make_report("route-origin", 1, "stolen prefix"), 20));
  EXPECT_TRUE(ledger.record(make_report("route-origin", 2, "stolen prefix"), 30));
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(FaultLedgerTest, LowestPriorityEvidenceWinsRegardlessOfArrivalOrder) {
  // The same fault arriving from a later task first must still surface the
  // earlier task's report (reports carry the triggering input as episode
  // evidence — it must be scheduling-independent).
  FaultLedger ledger;
  core::FaultReport late = make_report("route-origin", 1, "stolen prefix");
  late.input = {0xbb};
  core::FaultReport early = make_report("route-origin", 1, "stolen prefix");
  early.input = {0xaa};
  ledger.record(std::move(late), /*priority=*/2 << 16);
  ledger.record(std::move(early), /*priority=*/1 << 16);
  const auto faults = ledger.snapshot_sorted();
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].input, util::Bytes{0xaa});
}

TEST(FaultLedgerTest, SnapshotSortedFollowsPriority) {
  FaultLedger ledger;
  ledger.record(make_report("b-check", 1, "second"), 200);
  ledger.record(make_report("c-check", 1, "third"), 300);
  ledger.record(make_report("a-check", 1, "first"), 100);
  const auto faults = ledger.snapshot_sorted();
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0].check, "a-check");
  EXPECT_EQ(faults[1].check, "b-check");
  EXPECT_EQ(faults[2].check, "c-check");
}

TEST(FaultLedgerTest, KeySaltPartitionsDedupSpace) {
  FaultLedger ledger;
  EXPECT_TRUE(ledger.record(make_report("route-origin", 1, "x"), 1, /*key_salt=*/1));
  EXPECT_TRUE(ledger.record(make_report("route-origin", 1, "x"), 2, /*key_salt=*/2));
  EXPECT_EQ(ledger.size(), 2u);
  // contains() applies the same salt transformation as record().
  const std::uint64_t key = core::fault_key(make_report("route-origin", 1, "x"));
  EXPECT_TRUE(ledger.contains(key, /*key_salt=*/1));
  EXPECT_TRUE(ledger.contains(key, /*key_salt=*/2));
  EXPECT_FALSE(ledger.contains(key));  // never recorded unsalted
  EXPECT_FALSE(ledger.contains(key, /*key_salt=*/3));
}

TEST(FaultLedgerTest, SaltMixingResistsCrossCellCollisions) {
  // Regression: salting used to be `key ^ (key_salt * golden)` — linear in
  // XOR, so any two cells' salts defined a fixed mask mapping one cell's
  // keys onto the other's. Construct that exact historical collision and
  // assert the splitmix64 mixing keeps the two findings distinct.
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t salt_a = 7;   // e.g. cell 6's salt (index + 1)
  const std::uint64_t salt_b = 12;  // e.g. cell 11's salt
  const core::FaultReport report = make_report("route-origin", 1, "finding A");
  const std::uint64_t key_a = core::fault_key(report);
  // Under the old scheme this distinct fault key in cell B collapsed onto
  // (key_a, salt_a): key_b ^ salt_b*g == key_a ^ salt_a*g.
  const std::uint64_t key_b = key_a ^ (salt_a * kGolden) ^ (salt_b * kGolden);
  ASSERT_NE(key_b, key_a);
  ASSERT_EQ(key_b ^ (salt_b * kGolden), key_a ^ (salt_a * kGolden));

  EXPECT_NE(salted_fault_key(key_b, salt_b), salted_fault_key(key_a, salt_a))
      << "cross-cell collision would silently merge two findings into one";

  FaultLedger ledger;
  EXPECT_TRUE(ledger.record(report, 1, salt_a));
  EXPECT_TRUE(ledger.contains(key_a, salt_a));
  EXPECT_FALSE(ledger.contains(key_b, salt_b));
}

TEST(FaultLedgerTest, WidePriorityBandsKeepCellOrder) {
  // The matrix salts per cell AND bands priorities per cell (index << 32);
  // a cell with more faults than the old 20-bit band (2^20) must not bleed
  // into the next cell's band.
  FaultLedger ledger;
  const std::uint64_t band = std::uint64_t{1} << 32;
  core::FaultReport cell1 = make_report("check", 1, "cell 1's finding");
  core::FaultReport cell0 = make_report("check", 2, "cell 0's late finding");
  ledger.record(std::move(cell1), /*priority=*/1 * band, /*key_salt=*/2);
  // Far beyond the old band, still strictly inside cell 0's 32-bit one.
  ledger.record(std::move(cell0), /*priority=*/0 * band + (1 << 21), /*key_salt=*/1);
  const auto faults = ledger.snapshot_sorted();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[0].description, "cell 0's late finding");
  EXPECT_EQ(faults[1].description, "cell 1's finding");
}

TEST(FaultLedgerTest, LvalueRecordAllLeavesCallerVectorIntact) {
  // The matrix records a cell's deduplicated faults from a const ref (the
  // orchestrator keeps ownership); record_all must not consume — or force a
  // wholesale copy of — the source vector.
  FaultLedger ledger;
  std::vector<core::FaultReport> faults;
  faults.push_back(make_report("route-origin", 1, "finding A"));
  faults.push_back(make_report("route-origin", 2, "finding B"));
  faults.push_back(make_report("route-origin", 1, "finding A"));  // duplicate: no copy
  EXPECT_EQ(ledger.record_all(faults, /*base_priority=*/0, /*key_salt=*/1), 2u);
  ASSERT_EQ(faults.size(), 3u);
  EXPECT_EQ(faults[0].description, "finding A");
  EXPECT_EQ(faults[2].description, "finding A");
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(FaultLedgerTest, ConcurrentRecordingIsDeterministic) {
  // 8 threads record overlapping fault sets; the surviving contents must be
  // exactly the per-key priority minima, independent of interleaving.
  FaultLedger ledger;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&ledger, t] {
      for (int i = 0; i < 50; ++i) {
        core::FaultReport report =
            make_report("check", static_cast<sim::NodeId>(i % 5), "desc");
        report.episode = static_cast<std::uint64_t>(t);
        ledger.record(std::move(report), static_cast<std::uint64_t>(t * 1000 + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto faults = ledger.snapshot_sorted();
  ASSERT_EQ(faults.size(), 5u);  // 5 distinct nodes
  for (std::size_t i = 0; i < faults.size(); ++i) {
    // Thread 0 wrote priorities 0..49 first-by-priority for each node.
    EXPECT_EQ(faults[i].episode, 0u);
  }
}

// ---------------------------------------------------------------------------
// SolverCache — memoized constraint solving with hit accounting
// ---------------------------------------------------------------------------

TEST(SolverCacheTest, SecondIdenticalQueryIsAHit) {
  concolic::ExprPool pool;
  // Constraint: input[0] == 0x42 (hint fails it; inversion solves it).
  const concolic::ExprRef cond = pool.binary(
      concolic::Op::kEq, pool.sym_byte(0), pool.constant(0x42, 8));
  const std::vector<concolic::Constraint> constraints{{cond, true}};

  SolverCache cache;
  concolic::Solver solver;
  solver.set_memo(&cache);

  const util::Bytes hint{0x00, 0x01};
  const auto first = solver.solve(pool, constraints, hint);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ((*first)[0], 0x42);
  EXPECT_EQ(solver.stats().cache_hits, 0u);
  EXPECT_EQ(solver.stats().cache_stores, 1u);

  const auto second = solver.solve(pool, constraints, hint);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(solver.stats().cache_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().sat_entries, 1u);
}

TEST(SolverCacheTest, KeysAreStructuralAcrossPools) {
  // The same conjunction built in a fresh pool (fresh ExprRefs) must reuse
  // the cached model — this is what makes the cache effective across
  // episodes, which rebuild their pools from scratch.
  SolverCache cache;
  concolic::Solver solver;
  solver.set_memo(&cache);

  std::optional<util::Bytes> first;
  {
    concolic::ExprPool pool;
    const auto cond = pool.binary(concolic::Op::kEq, pool.sym_byte(0),
                                  pool.constant(0x42, 8));
    const std::vector<concolic::Constraint> constraints{{cond, true}};
    first = solver.solve(pool, constraints, util::Bytes{0x00});
  }
  {
    concolic::ExprPool pool;
    (void)pool.constant(0x99, 8);  // shift ref numbering in the new pool
    const auto cond = pool.binary(concolic::Op::kEq, pool.sym_byte(0),
                                  pool.constant(0x42, 8));
    const std::vector<concolic::Constraint> constraints{{cond, true}};
    const auto second = solver.solve(pool, constraints, util::Bytes{0x00});
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*second, *first);
  }
  EXPECT_EQ(solver.stats().cache_hits, 1u);
}

TEST(SolverCacheTest, ProvenUnsatIsCachedButSearchGiveUpsAreNot) {
  SolverCache cache;
  concolic::Solver solver;
  solver.set_memo(&cache);

  concolic::ExprPool pool;
  // input[0] == 1 AND input[0] == 2: interval propagation proves UNSAT.
  const auto eq1 = pool.binary(concolic::Op::kEq, pool.sym_byte(0), pool.constant(1, 8));
  const auto eq2 = pool.binary(concolic::Op::kEq, pool.sym_byte(0), pool.constant(2, 8));
  const std::vector<concolic::Constraint> unsat{{eq1, true}, {eq2, true}};
  EXPECT_FALSE(solver.solve(pool, unsat, util::Bytes{0x00}).has_value());
  EXPECT_EQ(solver.stats().cache_stores, 1u);  // proof => memoized
  EXPECT_FALSE(solver.solve(pool, unsat, util::Bytes{0x00}).has_value());
  EXPECT_EQ(solver.stats().cache_hits, 1u);

  // Constraint on a byte beyond the hint: unsolvable *for this hint* but
  // not a proof — must not be memoized as UNSAT.
  const auto far = pool.binary(concolic::Op::kEq, pool.sym_byte(9), pool.constant(7, 8));
  const std::vector<concolic::Constraint> truncated{{far, true}};
  EXPECT_FALSE(solver.solve(pool, truncated, util::Bytes{0x00}).has_value());
  const auto stores_before = solver.stats().cache_stores;
  EXPECT_EQ(stores_before, 1u);  // nothing new stored
  // A longer hint CAN solve it — a cached UNSAT would have blocked this.
  const auto solved =
      solver.solve(pool, truncated, util::Bytes(10, 0x00));
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ((*solved)[9], 7);
}

TEST(SolverCacheTest, NonCoveringEnumerationGiveUpIsNotCachedAsUnsat) {
  // C1: input[0] == 7 (fails under the hint); C2: input[0] + input[1] == 5
  // (holds under the hint). Enumeration varies only C1's byte with byte 1
  // pinned, finds nothing — but (7, 254) satisfies both (8-bit wrap), so
  // the give-up must NOT be memoized as UNSAT for later hints.
  SolverCache cache;
  concolic::Solver solver;
  solver.set_memo(&cache);

  concolic::ExprPool pool;
  const auto c1 = pool.binary(concolic::Op::kEq, pool.sym_byte(0), pool.constant(7, 8));
  const auto sum = pool.binary(concolic::Op::kAdd, pool.sym_byte(0), pool.sym_byte(1));
  const auto c2 = pool.binary(concolic::Op::kEq, sum, pool.constant(5, 8));
  const std::vector<concolic::Constraint> constraints{{c1, true}, {c2, true}};

  EXPECT_FALSE(solver.solve(pool, constraints, util::Bytes{5, 0}).has_value());
  EXPECT_EQ(cache.size(), 0u) << "hint-dependent give-up was cached as a proof";

  // A hint that fails both constraints involves both bytes; full
  // enumeration then finds the wrap-around model a poisoned cache entry
  // would have blocked.
  const auto solved = solver.solve(pool, constraints, util::Bytes{5, 200});
  ASSERT_TRUE(solved.has_value());
  EXPECT_EQ((*solved)[0], 7);
  EXPECT_EQ((*solved)[1], 254);
}

TEST(SolverCacheTest, ConcurrentLookupsAndStoresAreSafe) {
  SolverCache cache;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, t] {
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = i % 37;
        std::optional<util::Bytes> result;
        if (!cache.lookup(key, result)) {
          cache.store(key, util::Bytes{static_cast<std::uint8_t>(key)});
        } else if (result) {
          // First-write-wins: the value is always the key's canonical byte.
          EXPECT_EQ((*result)[0], static_cast<std::uint8_t>(key));
        }
        (void)t;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), 37u);
}

// ---------------------------------------------------------------------------
// Copy-on-write RIB tables: clones share the prepared tables, never write them
// ---------------------------------------------------------------------------

/// Re-encodes every decoded checkpoint of `prepared`: applies the cut to a
/// fresh probe System and checkpoints each router. Apply shares the decoded
/// RIB tables, so the bytes are those of the tables the snapshot holds.
[[nodiscard]] std::vector<util::Bytes> reencode(
    const std::shared_ptr<const core::SystemPrototype>& prototype,
    const snapshot::PreparedSnapshot& prepared) {
  core::System probe(prototype);
  EXPECT_TRUE(probe.reset_from(prepared).ok());
  std::vector<util::Bytes> encoded;
  for (const auto& [node, entry] : prepared.nodes()) {
    util::ByteWriter writer;
    probe.router(node).checkpoint(writer);
    encoded.push_back(writer.bytes());
  }
  return encoded;
}

/// `from` announces a fresh /24 tagged `tag` and withdraws its own prefix.
[[nodiscard]] util::Bytes churn_update(sim::NodeId from, std::uint8_t tag) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = bgp::AsPath{{bgp::node_asn(from)}};
  update.attrs.next_hop = bgp::node_address(from);
  update.nlri.push_back(util::IpPrefix{util::IpAddress{10, 250, tag, 0}, 24});
  update.withdrawn.push_back(bgp::node_prefix(from));
  return bgp::encode(bgp::Message{update}).value();
}

TEST(RibSharingTest, ArenaClonesThatChurnLeaveThePreparedSnapshotUnchanged) {
  // Ring of 6, odd nodes on the bgp2 engine: both engines restore shared
  // tables. Every clone announces, withdraws and reconverges, writing
  // Adj-RIB-In, Loc-RIB and Adj-RIB-Out tables it first shared with the
  // snapshot. A write that missed its detach would show up as a prepared
  // checkpoint that no longer re-encodes to its original bytes.
  constexpr std::size_t kRouters = 6;
  bgp::SystemBlueprint blueprint = bgp::make_ring(kRouters);
  for (sim::NodeId node = 1; node < kRouters; node += 2) {
    blueprint.set_implementation(node, "fsm");
  }
  auto prototype = std::make_shared<const core::SystemPrototype>(std::move(blueprint));
  core::System live(prototype);
  live.start();
  ASSERT_TRUE(live.converge());
  const snapshot::SnapshotId id = live.take_snapshot(0);
  ASSERT_NE(id, 0u);
  const auto prepared = live.prepare_snapshot(id);
  ASSERT_NE(prepared, nullptr);
  const std::vector<util::Bytes> before = reencode(prototype, *prepared);

  obs::Counter& detaches = obs::MetricsRegistry::global().counter(obs::names::kRibDetaches);
  const std::uint64_t detaches_before = detaches.value();
  constexpr std::size_t kClones = 48;
  ExplorePool pool(4);
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> diverged{0};
  pool.run_batch(kClones, [&](std::size_t task, std::size_t worker) {
    bool reused = false;
    core::System* clone =
        pool.arena(worker).acquire(prototype, *prepared, reused).value_or(nullptr);
    if (clone == nullptr) {
      ++failures;
      return;
    }
    const auto from = static_cast<sim::NodeId>(task % kRouters);
    const auto to = static_cast<sim::NodeId>((from + 1) % kRouters);
    clone->inject_message(from, to, churn_update(from, static_cast<std::uint8_t>(task)));
    if (!clone->converge()) ++failures;
    if (clone->router(to).state_hash() != live.router(to).state_hash()) ++diverged;
  });
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(diverged.load(), kClones);  // every clone really wrote its tables
  if constexpr (obs::kEnabled) {
    EXPECT_GT(detaches.value(), detaches_before);
  }
  EXPECT_EQ(reencode(prototype, *prepared), before);
}

}  // namespace
}  // namespace dice::explore
