// LiveStateCache + bootstrap-once equivalence: cells that resume a cached
// live state must be indistinguishable — byte-identical fault sets — from
// cells that replay bootstrap from scratch, at every worker count, and
// the fresh run reproduces a pinned fault-set hash. Plus the cache's
// concurrency contracts: once-latch (one bootstrap per key, ever),
// evict-while-held lifetimes, uncacheable-key fallback, and one decode per
// stored cut however many Systems resume it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "bgp/codec.hpp"
#include "bgp/router.hpp"
#include "dice/orchestrator.hpp"
#include "explore/live_cache.hpp"
#include "explore/matrix.hpp"
#include "metrics_delta.hpp"
#include "obs/names.hpp"
#include "svc/soak_service.hpp"

namespace dice::explore {
namespace {

using core::DiceOptions;
using core::FaultReport;
using core::Orchestrator;
using core::System;
using core::SystemPrototype;

// ---------------------------------------------------------------------------
// System-level capture/resume receipt
// ---------------------------------------------------------------------------

/// `state`'s decoded cut, resolved against `system`'s routers.
[[nodiscard]] std::shared_ptr<const snapshot::PreparedSnapshot> decoded_cut(
    const snapshot::PreparedLiveState& state, const System& system) {
  auto decoded =
      state.decoded([&system](sim::NodeId node) -> const snapshot::Checkpointable* {
        return node < system.size() ? &system.router(node) : nullptr;
      });
  EXPECT_TRUE(decoded.ok());
  return decoded.ok() ? decoded.value() : nullptr;
}

TEST(LiveStateCaptureTest, ResumedSystemMatchesDonorStateAndCutHash) {
  auto prototype =
      std::make_shared<const SystemPrototype>(bgp::make_internet({2, 3, 4}));
  System donor(prototype);
  donor.start();
  ASSERT_TRUE(donor.converge());
  const auto state = donor.capture_live_state(/*initiator=*/0);
  ASSERT_NE(state, nullptr);
  ASSERT_NE(state->raw, nullptr);
  // The capture carries its decoded cut: reading it decodes nothing.
  const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
  ASSERT_NE(decoded_cut(*state, donor), nullptr);
  EXPECT_EQ(bgp::checkpoint_decode_count(), decodes_before);
  EXPECT_GT(state->resume_at, 0u);
  EXPECT_GT(state->bootstrap_executed, 0u);
  // The capture is standalone: its raw cut must not linger in the donor's
  // store and perturb the per-episode snapshot lifecycle.
  EXPECT_EQ(donor.snapshots().size(), 0u);

  System resumed(prototype);  // never started — resume replaces bootstrap
  ASSERT_TRUE(resumed.resume_from(*state).ok());
  EXPECT_EQ(resumed.simulator().now(), state->resume_at);
  EXPECT_EQ(resumed.total_loc_rib_routes(), donor.total_loc_rib_routes());
  EXPECT_EQ(resumed.established_sessions(), donor.established_sessions());
  for (std::size_t i = 0; i < donor.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    EXPECT_EQ(resumed.router(node).state_hash(), donor.router(node).state_hash())
        << "node " << i;
  }
  // Going forward the two systems snapshot identically (what episode
  // equivalence ultimately rests on).
  const snapshot::SnapshotId donor_snap = donor.take_snapshot(1);
  const snapshot::SnapshotId resumed_snap = resumed.take_snapshot(1);
  ASSERT_NE(donor_snap, 0u);
  ASSERT_NE(resumed_snap, 0u);
  EXPECT_EQ(resumed.snapshots().find(resumed_snap)->cut_hash(),
            donor.snapshots().find(donor_snap)->cut_hash());
}

// ---------------------------------------------------------------------------
// Bootstrap oscillation early-exit (the live-system side of the clone exit)
// ---------------------------------------------------------------------------

/// Re-encodes every decoded checkpoint of `prepared`: applies the cut to a
/// fresh probe System and checkpoints each router. Apply shares the decoded
/// RIB tables, so the bytes are those of the tables the snapshot holds.
[[nodiscard]] std::vector<util::Bytes> reencode(
    const std::shared_ptr<const SystemPrototype>& prototype,
    const snapshot::PreparedSnapshot& prepared) {
  System probe(prototype);
  EXPECT_TRUE(probe.reset_from(prepared).ok());
  std::vector<util::Bytes> encoded;
  for (const auto& [node, entry] : prepared.nodes()) {
    util::ByteWriter writer;
    probe.router(node).checkpoint(writer);
    encoded.push_back(writer.bytes());
  }
  return encoded;
}

TEST(LiveStateCaptureTest, ResumedSystemChurnLeavesCacheEntryUnchanged) {
  // A resumed live system starts out sharing the cache entry's decoded RIB
  // tables (copy-on-write). Churning it — new routes, withdrawals, a
  // session reset — must detach every table it writes, so the entry the
  // next cell resumes from still holds the captured state.
  auto prototype =
      std::make_shared<const SystemPrototype>(bgp::make_internet({2, 3, 4}));
  System donor(prototype);
  donor.start();
  ASSERT_TRUE(donor.converge());
  LiveStateCache cache;
  const LiveStateCache::Key key{prototype, 1, 0};
  const auto entry =
      cache.get_or_compute(key, [&] { return donor.capture_live_state(0); }).state;
  ASSERT_NE(entry, nullptr);
  const auto cut = decoded_cut(*entry, donor);
  ASSERT_NE(cut, nullptr);
  const std::vector<util::Bytes> before = reencode(prototype, *cut);

  System resumed(prototype);
  ASSERT_TRUE(resumed.resume_from(*entry).ok());
  for (std::uint8_t node = 0; node < 2; ++node) {
    const sim::NodeId peer = 1 - node;  // the two tier-1 routers peer
    bgp::UpdateMessage update;
    update.attrs.origin = bgp::Origin::kIgp;
    update.attrs.as_path = bgp::AsPath{{bgp::node_asn(peer)}};
    update.attrs.next_hop = bgp::node_address(peer);
    update.nlri.push_back(util::IpPrefix{util::IpAddress{10, 251, node, 0}, 24});
    update.withdrawn.push_back(bgp::node_prefix(peer));
    resumed.inject_message(peer, node, bgp::encode(bgp::Message{update}).value());
  }
  ASSERT_TRUE(resumed.converge());
  resumed.router(2).reset_session(0);
  ASSERT_TRUE(resumed.converge());
  EXPECT_NE(resumed.router(0).state_hash(), donor.router(0).state_hash());

  const auto after = cache.find(key);
  ASSERT_EQ(after, entry);
  EXPECT_EQ(decoded_cut(*after, donor), cut);
  EXPECT_EQ(reencode(prototype, *cut), before);
}

TEST(LiveStateCaptureTest, StoredCutDecodesOnceAcrossResumes) {
  // A state primed from the persistent store carries only its raw cut,
  // the way svc::SoakService primes it. The first resume decodes it; every
  // later resume, concurrent or not, shares that decode.
  auto prototype =
      std::make_shared<const SystemPrototype>(bgp::make_internet({2, 3, 4}));
  System donor(prototype);
  donor.start();
  ASSERT_TRUE(donor.converge());
  const auto captured = donor.capture_live_state(/*initiator=*/0);
  ASSERT_NE(captured, nullptr);
  ASSERT_NE(captured->raw, nullptr);
  auto stored = std::make_shared<snapshot::PreparedLiveState>();
  stored->raw = captured->raw;
  stored->resume_at = captured->resume_at;
  stored->bootstrap_executed = captured->bootstrap_executed;
  stored->quiesced = true;

  std::vector<std::unique_ptr<System>> resumed;
  for (int i = 0; i < 4; ++i) resumed.push_back(std::make_unique<System>(prototype));
  const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < 2; ++i) {
      threads.emplace_back(
          [&, i] { EXPECT_TRUE(resumed[i]->resume_from(*stored).ok()) << "system " << i; });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int i = 2; i < 4; ++i) {
    EXPECT_TRUE(resumed[i]->resume_from(*stored).ok()) << "system " << i;
  }
  EXPECT_EQ(bgp::checkpoint_decode_count() - decodes_before, captured->raw->nodes.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i]->simulator().now(), stored->resume_at);
    for (std::size_t n = 0; n < donor.size(); ++n) {
      const sim::NodeId node = static_cast<sim::NodeId>(n);
      EXPECT_EQ(resumed[i]->router(node).state_hash(), donor.router(node).state_hash())
          << "system " << i << " node " << n;
    }
  }
}

TEST(BootstrapEarlyExitTest, DisputeWheelBootstrapStopsAtFlipThreshold) {
  constexpr std::size_t kBudget = 200'000;
  const auto boot = [&](bool early_exit) {
    DiceOptions options;
    options.bootstrap_early_exit = early_exit;
    Orchestrator dice(bgp::make_bad_gadget(), options);
    EXPECT_FALSE(dice.bootstrap(kBudget)) << "a dispute wheel must not quiesce";
    return std::pair{dice.live().simulator().executed(), dice.last_bootstrap()};
  };

  const auto [fast_events, fast_outcome] = boot(/*early_exit=*/true);
  EXPECT_TRUE(fast_outcome.oscillation_exit);
  EXPECT_LT(fast_events, kBudget / 4)
      << "oscillation evidence is conclusive long before the budget";

  const auto [slow_events, slow_outcome] = boot(/*early_exit=*/false);
  EXPECT_FALSE(slow_outcome.oscillation_exit);
  EXPECT_GE(slow_events, static_cast<std::uint64_t>(kBudget))
      << "without the exit, bootstrap burns the full event budget";
  EXPECT_GT(slow_events, fast_events * 4);
}

// ---------------------------------------------------------------------------
// Quiescence verdict hardening (System::converge_bounded)
// ---------------------------------------------------------------------------

TEST(ConvergeBoundedTest, EmptyQueueWithPendingForegroundIsNotQuiescence) {
  // Regression: converge_bounded used to `break` when step() drained the
  // queue and fall through to quiesced=true even with foreground work
  // still accounted — a bookkeeping mismatch misreported as convergence
  // (and, downstream, a missing non-quiescence fault). Both the early-exit
  // and plain paths must report non-quiescence.
  System plain(bgp::make_line(2));  // never started: queue genuinely empty
  sim::SimulatorTestPeer::add_phantom_foreground(plain.simulator(), 1);
  EXPECT_FALSE(plain.converge(/*max_events=*/1000));

  System polled(bgp::make_line(2));
  sim::SimulatorTestPeer::add_phantom_foreground(polled.simulator(), 1);
  const System::ConvergeOutcome outcome =
      polled.converge_bounded(/*max_events=*/1000, 3600 * sim::kSecond,
                              /*flip_exit_threshold=*/8);
  EXPECT_FALSE(outcome.quiesced);
  EXPECT_FALSE(outcome.oscillation_exit);
}

// ---------------------------------------------------------------------------
// LiveStateCache mechanics
// ---------------------------------------------------------------------------

[[nodiscard]] LiveStateCache::Compute make_state(sim::Time resume_at) {
  return [resume_at]() -> std::shared_ptr<const snapshot::PreparedLiveState> {
    auto state = std::make_shared<snapshot::PreparedLiveState>();
    state->resume_at = resume_at;
    state->quiesced = true;
    return state;
  };
}

TEST(LiveStateCacheTest, OnceLatchComputesExactlyOncePerKey) {
  LiveStateCache cache;
  const auto anchor = std::make_shared<int>(0);
  const LiveStateCache::Key key{anchor, 1, 100};
  std::atomic<int> computes{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const LiveStateCache::Lookup lookup = cache.get_or_compute(key, [&] {
        ++computes;
        // Make the race window wide: every other worker must PARK on the
        // once-latch for the duration, not bootstrap its own copy.
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
        return make_state(7)();
      });
      EXPECT_NE(lookup.state, nullptr);
      EXPECT_EQ(lookup.state->resume_at, 7u);
      if (lookup.hit) ++hits;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(hits.load(), 7);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LiveStateCacheTest, DistinctKeysResolveIndependently) {
  LiveStateCache cache;
  const auto anchor_a = std::make_shared<int>(0);
  const auto anchor_b = std::make_shared<int>(0);
  const LiveStateCache::Key base{anchor_a, 1, 100};
  LiveStateCache::Key other_proto = base;
  other_proto.prototype = anchor_b;
  LiveStateCache::Key other_seed = base;
  other_seed.seed = 2;
  LiveStateCache::Key other_budget = base;
  other_budget.bootstrap_events = 200;
  LiveStateCache::Key other_flip_exit = base;
  other_flip_exit.flip_exit = 8;
  for (const auto& key :
       {base, other_proto, other_seed, other_budget, other_flip_exit}) {
    EXPECT_FALSE(cache.get_or_compute(key, make_state(1)).hit);
  }
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_TRUE(cache.get_or_compute(base, make_state(2)).hit);
}

TEST(LiveStateCacheTest, ClearWhileHeldKeepsStateAliveAndRecomputes) {
  LiveStateCache cache;
  const auto anchor = std::make_shared<int>(0);
  const LiveStateCache::Key key{anchor, 1, 100};
  const LiveStateCache::Lookup first = cache.get_or_compute(key, make_state(42));
  EXPECT_FALSE(first.hit);
  ASSERT_NE(first.state, nullptr);
  const std::shared_ptr<const snapshot::PreparedLiveState> held = first.state;

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(key), nullptr);
  // The holder's state outlives the trim (shared_ptr contract, mirroring
  // SnapshotStore's prepared entries).
  EXPECT_EQ(held->resume_at, 42u);
  EXPECT_TRUE(held->quiesced);

  const LiveStateCache::Lookup second = cache.get_or_compute(key, make_state(43));
  EXPECT_FALSE(second.hit);
  EXPECT_EQ(second.state->resume_at, 43u);
  EXPECT_EQ(held->resume_at, 42u);  // old holders are never retargeted
}

TEST(LiveStateCacheTest, ConcurrentLookupsAndClearsAreSafe) {
  // Sanitizer-targeted churn: readers hammer a small key space while a
  // trimmer clears the cache underneath them. Correctness bar: every
  // lookup yields a usable state and nothing races (TSan/ASan verdict).
  LiveStateCache cache;
  const auto anchor = std::make_shared<int>(0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const LiveStateCache::Key key{anchor, (i + t) % 8, 100};
        const auto lookup = cache.get_or_compute(key, make_state(key.seed + 1));
        ASSERT_NE(lookup.state, nullptr);
        ASSERT_EQ(lookup.state->resume_at, key.seed + 1);
      }
    });
  }
  std::thread trimmer([&] {
    for (int i = 0; i < 20; ++i) {
      cache.clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });
  trimmer.join();
  for (auto& reader : readers) reader.join();
}

TEST(LiveStateCacheTest, UncacheableKeyIsRememberedWithoutRecompute) {
  LiveStateCache cache;
  const auto anchor = std::make_shared<int>(0);
  const LiveStateCache::Key key{anchor, 3, 100};
  int computes = 0;
  const auto decline = [&]() -> std::shared_ptr<const snapshot::PreparedLiveState> {
    ++computes;
    return nullptr;  // e.g. a non-quiescent bootstrap
  };
  const LiveStateCache::Lookup miss = cache.get_or_compute(key, decline);
  EXPECT_FALSE(miss.hit);
  EXPECT_EQ(miss.state, nullptr);
  // Later callers learn "uncacheable" instantly — the compute never reruns.
  const LiveStateCache::Lookup hit = cache.get_or_compute(key, decline);
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.state, nullptr);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.find(key), nullptr);
}

TEST(LiveStateCacheTest, LruBoundEvictsLeastRecentlyUsedResolvedEntry) {
  LiveStateCache cache(/*max_entries=*/2);
  EXPECT_EQ(cache.max_entries(), 2u);
  const auto anchor = std::make_shared<int>(0);
  const LiveStateCache::Key first{anchor, 1, 100};
  const LiveStateCache::Key second{anchor, 2, 100};
  const LiveStateCache::Key third{anchor, 3, 100};
  (void)cache.get_or_compute(first, make_state(1));
  // Hold the victim's state across its eviction.
  const auto held = cache.get_or_compute(second, make_state(2)).state;
  ASSERT_NE(held, nullptr);
  // Touch `first` so `second` is the LRU victim when `third` arrives.
  EXPECT_NE(cache.find(first), nullptr);
  (void)cache.get_or_compute(third, make_state(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(second), nullptr) << "LRU entry must be the one evicted";
  EXPECT_NE(cache.find(first), nullptr);
  EXPECT_NE(cache.find(third), nullptr);
  // Eviction only drops the cache's reference: the holder's state stays
  // valid (the SnapshotStore::trim contract).
  EXPECT_EQ(held->resume_at, 2u);
  EXPECT_TRUE(held->quiesced);
  // An evicted key simply recomputes — same contract as clear().
  EXPECT_FALSE(cache.get_or_compute(second, make_state(22)).hit);
}

TEST(LiveStateCacheTest, InFlightComputeIsNeverEvicted) {
  LiveStateCache cache(/*max_entries=*/1);
  const auto anchor = std::make_shared<int>(0);
  const LiveStateCache::Key resolved{anchor, 1, 100};
  const LiveStateCache::Key in_flight{anchor, 2, 100};
  const LiveStateCache::Key nested{anchor, 3, 100};
  const LiveStateCache::Key newest{anchor, 4, 100};
  (void)cache.get_or_compute(resolved, make_state(1));
  const LiveStateCache::Lookup lookup = cache.get_or_compute(in_flight, [&] {
    // Inserting `in_flight` already pushed the resolved entry out (bound 1).
    EXPECT_EQ(cache.find(resolved), nullptr);
    // Two more keys arrive during the compute. When `newest` is inserted,
    // `in_flight` is the least recently used entry, but eviction must skip
    // it and take the resolved `nested` instead.
    (void)cache.get_or_compute(nested, make_state(3));
    (void)cache.get_or_compute(newest, make_state(4));
    EXPECT_EQ(cache.size(), 2u);
    return make_state(2)();
  });
  EXPECT_FALSE(lookup.hit);
  ASSERT_NE(lookup.state, nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(in_flight), nullptr) << "the in-flight key survived and resolved";
  EXPECT_EQ(cache.find(nested), nullptr);
  EXPECT_NE(cache.find(newest), nullptr);
  EXPECT_EQ(cache.find(resolved), nullptr);
}

// ---------------------------------------------------------------------------
// Interleaved matrix deal: same-key cells spread across the batch
// ---------------------------------------------------------------------------

TEST(InterleaveDealTest, RoundRobinsAcrossKeysPreservingWithinKeyOrder) {
  // The 2-scenario x 2-strategy x 2-seed matrix shape: cells of a key
  // (scenario, seed) sit at stride |seeds| inside a scenario block.
  const std::vector<std::size_t> keys{0, 1, 0, 1, 2, 3, 2, 3};
  const std::vector<std::size_t> order = interleave_keys(keys);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 4, 5, 2, 3, 6, 7}));
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_NE(keys[order[i]], keys[order[i + 1]]) << "slot " << i;
  }
}

TEST(InterleaveDealTest, StrategyHeavyMatrixNoLongerFrontloadsOneKey) {
  // The motivating shape (bench_matrix_startup): 4 strategies x 1 seed —
  // all four of a scenario's cells share one bootstrap key, so the old
  // deal parked W-1 workers on cell 0's once-latch at batch start.
  const std::vector<std::size_t> keys{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::size_t> order = interleave_keys(keys);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 4, 1, 5, 2, 6, 3, 7}));
  // A permutation (every result slot runs exactly once), within-key order
  // preserved (the canonical-first cell of a key still bootstraps it).
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  EXPECT_LT(order[0], 4u);
  EXPECT_GE(order[1], 4u);
}

// ---------------------------------------------------------------------------
// Matrix equivalence: cached bootstrap vs fresh bootstrap
// ---------------------------------------------------------------------------

[[nodiscard]] std::vector<ScenarioSpec> equivalence_scenarios() {
  std::vector<ScenarioSpec> scenarios;
  bgp::SystemBlueprint hijack = bgp::make_internet({2, 3, 4});
  bgp::inject_hijack(hijack, /*victim=*/5, /*attacker=*/8);
  scenarios.push_back({"internet9-hijack", std::move(hijack)});
  scenarios.push_back({"bad-gadget", bgp::make_bad_gadget()});  // uncacheable key
  scenarios.push_back({"line3", bgp::make_line(3)});
  return scenarios;
}

// The fresh (uncached) matrix's 21 canonical faults, svc::fault_set_hash.
constexpr std::uint64_t kFreshMatrixFaultHash = 0x0848da3c5fa99716ULL;

struct MatrixOutput {
  std::string faults;                     ///< canonical cell-order fault list
  std::uint64_t fault_hash = 0;           ///< svc::fault_set_hash of the same
  std::vector<std::string> cell_lines;    ///< per-cell counters
  std::size_t cells_from_cache = 0;
  /// Live-cache traffic of the run, as registry deltas.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_uncacheable = 0;
};

[[nodiscard]] MatrixOutput run_matrix(std::size_t workers, bool cached) {
  MatrixOptions options;
  options.strategies = {StrategyKind::kGrammar, StrategyKind::kRandom};
  options.seeds = {1, 2};
  options.episodes_per_cell = 1;
  options.bootstrap_events = 300'000;
  options.live_state_cache = cached;
  options.dice.inputs_per_episode = 4;
  options.dice.clone_event_budget = 60'000;
  ScenarioMatrix matrix(equivalence_scenarios(), options);
  ExplorePool pool(workers);
  const testutil::CounterDelta delta;
  const MatrixResult result = matrix.run(pool, {});

  MatrixOutput output;
  std::ostringstream faults;
  for (const FaultReport& fault : result.faults) faults << fault.to_string() << "\n";
  output.faults = faults.str();
  output.fault_hash = svc::fault_set_hash(result.faults);
  for (const CellResult& cell : result.cells) {
    std::ostringstream line;
    line << cell.scenario << "/" << to_string(cell.strategy) << "/s" << cell.seed
         << " boot=" << cell.bootstrap_converged << " episodes=" << cell.episodes
         << " clones=" << cell.clones_run << " faults=" << cell.faults;
    output.cell_lines.push_back(line.str());
    if (cell.bootstrap_from_cache) ++output.cells_from_cache;
  }
  output.cache_hits = delta(obs::names::kLiveCacheHits);
  output.cache_misses = delta(obs::names::kLiveCacheMisses);
  output.cache_uncacheable = delta(obs::names::kLiveCacheUncacheable);
  return output;
}

TEST(MatrixLiveCacheEquivalenceTest, CachedBootstrapFaultSetsMatchFreshAtWorkers1And2And8) {
  // The acceptance property: a matrix run that bootstraps every (scenario,
  // seed) once and resumes the rest must be byte-identical to one that
  // bootstraps every cell from scratch — for any worker count.
  const MatrixOutput fresh = run_matrix(/*workers=*/1, /*cached=*/false);
  ASSERT_FALSE(fresh.faults.empty()) << "hijack + dispute wheel must produce faults";
  EXPECT_EQ(fresh.fault_hash, kFreshMatrixFaultHash);
  EXPECT_EQ(fresh.cells_from_cache, 0u);
  if (obs::kEnabled) {
    EXPECT_EQ(fresh.cache_misses, 0u) << "cache must stay untouched when disabled";
  }

  for (const std::size_t workers : {1u, 2u, 8u}) {
    const MatrixOutput cached = run_matrix(workers, /*cached=*/true);
    EXPECT_EQ(cached.faults, fresh.faults) << "workers=" << workers;
    EXPECT_EQ(cached.cell_lines, fresh.cell_lines) << "workers=" << workers;
    // 6 keys (3 scenarios x 2 seeds), 2 cells each: exactly one bootstrap
    // per key ever runs; the second cell of every cacheable key resumes.
    // bad-gadget never quiesces, so its 2 keys resolve uncacheable and
    // their second cells replay bootstrap (cheap via the early exit).
    EXPECT_EQ(cached.cells_from_cache, 4u) << "workers=" << workers;
    if (obs::kEnabled) {
      EXPECT_EQ(cached.cache_misses, 6u) << "workers=" << workers;
      EXPECT_EQ(cached.cache_hits, 6u) << "workers=" << workers;
      EXPECT_EQ(cached.cache_uncacheable, 4u) << "workers=" << workers;
    }
  }
}

TEST(MatrixLiveCacheEquivalenceTest, ExternalCacheServesAcrossRuns) {
  // A shared cache turns a repeat soak's every cell into a resume (the
  // long-soak mode bench_matrix_startup measures).
  LiveStateCache shared;
  MatrixOptions options;
  options.strategies = {StrategyKind::kGrammar};
  options.seeds = {1};
  options.episodes_per_cell = 1;
  options.bootstrap_events = 300'000;
  options.live_cache = &shared;
  options.dice.inputs_per_episode = 4;
  options.dice.clone_event_budget = 60'000;
  std::vector<ScenarioSpec> scenarios;
  scenarios.push_back({"line3", bgp::make_line(3)});
  ScenarioMatrix matrix(std::move(scenarios), options);
  ExplorePool pool(1);

  const MatrixResult first = matrix.run(pool, {});
  ASSERT_EQ(first.cells.size(), 1u);
  EXPECT_FALSE(first.cells[0].bootstrap_from_cache);

  const MatrixResult second = matrix.run(pool, {});
  ASSERT_EQ(second.cells.size(), 1u);
  EXPECT_TRUE(second.cells[0].bootstrap_from_cache);
  EXPECT_EQ(second.cells[0].faults, first.cells[0].faults);
}

}  // namespace
}  // namespace dice::explore
