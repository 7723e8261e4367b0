// SolverCache: concurrent memoization of path-constraint solving.
//
// Concolic episodes re-derive structurally identical branch negations over
// and over — every episode rebuilds its ExprPool from scratch, and every
// clone of the same explorer walks the same UPDATE-handler branches. The
// cache keys queries by concolic::constraints_key (a pool-independent
// structural hash of the conjunction) and stores either a concretely
// verified model or a proven-UNSAT marker, so later episodes — possibly on
// other workers — skip the whole solving pipeline.
//
// Lock-striped: keys shard onto independent mutex-guarded maps, so
// concurrent callers of one cache rarely contend. (ScenarioMatrix gives
// each cell its own cache, and a cell generates its inputs serially.)
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "concolic/solver.hpp"
#include "util/bytes.hpp"

namespace dice::explore {

class SolverCache final : public concolic::SolverMemo {
 public:
  explicit SolverCache(std::size_t shards = 16);

  [[nodiscard]] bool lookup(std::uint64_t key, std::optional<util::Bytes>& result) override;
  void store(std::uint64_t key, const std::optional<util::Bytes>& result) override;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t entries = 0;
    std::uint64_t sat_entries = 0;  ///< entries holding a model (rest: proven UNSAT)
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t size() const;
  void clear();

  /// Every key currently holding a proven-UNSAT marker, in ascending order
  /// (stable bytes for persistence). UNSAT entries are the only part of the
  /// memo that is sound to replay across runs and processes: a seeded hit
  /// skips solving with the exact verdict a fresh solve would reach,
  /// whereas a replayed SAT *model* could differ byte-wise from the one a
  /// fresh solve produces and move fault bytes.
  [[nodiscard]] std::vector<std::uint64_t> unsat_keys() const;

  /// Pre-loads proven-UNSAT markers (svc::ArtifactStore warm start,
  /// MatrixOptions::unsat_seed). First write wins, exactly like store():
  /// seeding never overwrites an existing entry. Does not count toward the
  /// hits/misses/stores traffic stats — seeded entries only show up in
  /// `entries`.
  void seed_unsat(const std::vector<std::uint64_t>& keys);

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, std::optional<util::Bytes>> entries;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t key) const {
    return *shards_[key % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
};

}  // namespace dice::explore
