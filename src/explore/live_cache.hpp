// LiveStateCache: bootstrap each (prototype, seed) live system ONCE.
//
// Every ScenarioMatrix cell used to replay its live system's bootstrap from
// scratch — start() plus up to bootstrap_events of convergence — even when
// another cell of the same (scenario, seed) had already converged the exact
// same deterministic state. This cache closes that gap the same way the
// clone pipeline's PreparedSnapshot closed the per-clone decode gap: the
// first cell of a key converges, captures a PreparedLiveState (typed
// checkpoints + frame schedule + simulator resume point), and publishes it;
// every later cell System::resume_from's it in microseconds.
//
// Once-latch: each key owns a latch held for the duration of the first
// caller's compute (the bootstrap + capture). Concurrent workers landing on
// the same key BLOCK on the latch instead of duplicating the bootstrap,
// then wake to the published state. Workers on different keys never
// contend beyond the map lock.
//
// Lifetime: entries and states are shared_ptr-published, so eviction and
// clear() may drop the cache's reference at any time — holders (including
// workers still blocked on a latch) keep theirs alive until they are done,
// mirroring the SnapshotStore prepared-entry contract.
//
// Uncacheable keys: a compute may return nullptr (non-quiescent bootstrap —
// restoring a churning cut would re-order its in-flight frames, and
// verdicts must be scheduling-independent). The null result is remembered
// so later callers fall back to their own bootstrap immediately, outside
// any latch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "snapshot/live_state.hpp"
#include "util/hash.hpp"

namespace dice::explore {

class LiveStateCache {
 public:
  /// Default LRU bound. Entries are small (shared_ptrs to typed state),
  /// but a long multi-matrix soak over generated scenarios would otherwise
  /// accumulate keys forever; generous so ordinary matrices never evict.
  static constexpr std::size_t kDefaultMaxEntries = 4096;

  /// `max_entries` bounds the cache LRU-style: inserting a fresh key past
  /// the bound evicts the least-recently-used RESOLVED entry (in-flight
  /// computes are never evicted — their keys are bounded by worker count).
  /// Like SnapshotStore::trim, eviction only drops the cache's reference:
  /// holders of returned states keep theirs alive.
  explicit LiveStateCache(std::size_t max_entries = kDefaultMaxEntries)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}
  /// Cache identity: the shared SystemPrototype (pointer identity — the
  /// matrix builds exactly one per scenario), the scenario seed, the
  /// bootstrap budget (a different budget converges to a different state
  /// on non-quiescing topologies), and the effective oscillation flip-exit
  /// threshold (0 = exit disabled; a different threshold stops a churning
  /// bootstrap at a different state). The key HOLDS the prototype: as long
  /// as an entry lives, the address cannot be recycled by a later
  /// prototype, so pointer identity stays sound even for a cache shared
  /// across matrix lifetimes.
  struct Key {
    std::shared_ptr<const void> prototype;
    std::uint64_t seed = 0;
    std::size_t bootstrap_events = 0;
    std::uint32_t flip_exit = 0;
    [[nodiscard]] bool operator==(const Key& other) const noexcept {
      return prototype.get() == other.prototype.get() && seed == other.seed &&
             bootstrap_events == other.bootstrap_events && flip_exit == other.flip_exit;
    }
  };

  using Compute = std::function<std::shared_ptr<const snapshot::PreparedLiveState>()>;

  struct Lookup {
    std::shared_ptr<const snapshot::PreparedLiveState> state;  ///< null: uncacheable key
    bool hit = false;  ///< true: resolved by an earlier compute (state may be null)
  };

  /// Returns the key's published state, invoking `compute` under the key's
  /// once-latch when it has never resolved. Exactly one caller per key ever
  /// computes; concurrent same-key callers block until it publishes. The
  /// registry counts hits, misses (this caller computed), uncacheable
  /// lookups and LRU evictions (`dice_live_cache_*_total`).
  [[nodiscard]] Lookup get_or_compute(const Key& key, const Compute& compute);

  /// The published state, or nullptr when the key never resolved (or was
  /// evicted, or resolved uncacheable). Never blocks on a latch.
  [[nodiscard]] std::shared_ptr<const snapshot::PreparedLiveState> find(const Key& key) const;

  /// One resolved, non-null entry: the key and its published state.
  struct ResolvedEntry {
    Key key;
    std::shared_ptr<const snapshot::PreparedLiveState> state;
  };
  /// Snapshot of every RESOLVED entry with a non-null state (uncacheable
  /// keys and in-flight computes are skipped). Never blocks on a latch;
  /// entry order is unspecified — callers wanting stable bytes sort by
  /// their own stable key (svc::ArtifactStore does). Does not touch LRU
  /// recency: harvesting for persistence must not distort eviction.
  [[nodiscard]] std::vector<ResolvedEntry> resolved_entries() const;

  /// Drops every entry. Holders of returned states (and workers blocked on
  /// a latch) are unaffected; the next lookup per key recomputes.
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t max_entries() const noexcept { return max_entries_; }

 private:
  struct Entry {
    std::mutex latch;  ///< held by the first caller for the whole compute
    /// Release-published after `state` is written; `state` never changes
    /// again, so resolved readers take no latch (hits stay concurrent and
    /// find() never confuses "being computed" with "mid-hit").
    std::atomic<bool> resolved{false};
    std::shared_ptr<const snapshot::PreparedLiveState> state;
    /// LRU clock value of the entry's last lookup. Touched only under the
    /// cache's map mutex (never the latch), unlike the fields above.
    std::uint64_t last_used = 0;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const noexcept {
      std::uint64_t h =
          util::hash_finalize(reinterpret_cast<std::uintptr_t>(key.prototype.get()));
      h = util::hash_finalize(h ^ key.seed);
      h = util::hash_finalize(h ^ key.bootstrap_events);
      return static_cast<std::size_t>(util::hash_finalize(h ^ key.flip_exit));
    }
  };

  /// Evicts LRU resolved entries until the map holds at most `max`.
  /// Requires mutex_ held. May leave the map above `max` when everything
  /// beyond it is an in-flight compute.
  void evict_locked(std::size_t max);

  mutable std::mutex mutex_;  ///< guards the map and LRU clock, never a compute
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> entries_;
  std::size_t max_entries_ = kDefaultMaxEntries;
  mutable std::uint64_t lru_clock_ = 0;  ///< find() bumps recency too
};

}  // namespace dice::explore
