// FaultLedger: concurrent fault deduplication shared by exploration workers.
//
// Every worker pushes the raw FaultReports of its clone run; the ledger
// collapses them by fault signature (core::fault_key — class+check+node+
// description) in one mutex-guarded hash map, so N workers reporting the
// same standing fault produce one entry. A clone reports a handful of
// faults at most, so one lock is not a point of contention.
//
// Determinism: each record carries a priority — the serial encounter order
// (task index, fault index within the task). When two reports share a key,
// the lowest priority wins, and snapshot_sorted() returns entries in
// ascending priority. The resulting fault list is therefore byte-identical
// to what a strictly serial run would report, regardless of worker count
// or stealing order.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dice/report.hpp"
#include "util/hash.hpp"

namespace dice::explore {

/// Mixes `key_salt` into a fault key non-linearly (splitmix64 finalizers
/// over both words). The previous `key ^ (salt * golden)` mixing was linear
/// in XOR: any two cells' salt difference mapped a fixed XOR mask over the
/// whole key space, so distinct (fault, cell) pairs could collide and
/// silently merge two findings into one. Exposed for the collision
/// regression test.
[[nodiscard]] constexpr std::uint64_t salted_fault_key(std::uint64_t key,
                                                       std::uint64_t salt) noexcept {
  return util::hash_finalize(key + util::hash_finalize(salt + 0x9e3779b97f4a7c15ULL));
}

class FaultLedger {
 public:
  /// Records one report under its fault_key. Returns true when the key was
  /// new; on a duplicate key the entry with the lower priority is kept.
  /// `key_salt` partitions the dedup space (ScenarioMatrix salts by cell:
  /// the same signature in two scenarios is two distinct findings).
  bool record(core::FaultReport report, std::uint64_t priority, std::uint64_t key_salt = 0);

  /// Records a clone run's faults with priorities base, base+1, ...
  /// Returns how many keys were new. The rvalue form consumes the reports;
  /// the lvalue form leaves the caller's vector intact and copies a report
  /// only when it actually lands in the ledger (duplicates — the common
  /// case in long soaks — never copy).
  std::size_t record_all(std::vector<core::FaultReport>&& reports,
                         std::uint64_t base_priority, std::uint64_t key_salt = 0);
  std::size_t record_all(const std::vector<core::FaultReport>& reports,
                         std::uint64_t base_priority, std::uint64_t key_salt = 0);

  /// Whether `fault_key` was recorded under the same `key_salt`.
  [[nodiscard]] bool contains(std::uint64_t fault_key, std::uint64_t key_salt = 0) const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// All entries in ascending priority — the canonical serial order.
  [[nodiscard]] std::vector<core::FaultReport> snapshot_sorted() const;

  void clear();

 private:
  struct Entry {
    core::FaultReport report;
    std::uint64_t priority = 0;
  };

  /// The one dedup-insert invariant both record paths share: emplace when
  /// the key is absent, replace when strictly lower priority. `Report` is
  /// a forwarding ref so the rvalue path moves and the lvalue path copies
  /// — and only when the report actually lands.
  template <typename Report>
  bool insert(std::uint64_t key, std::uint64_t priority, Report&& report);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;  ///< guarded by mutex_
};

}  // namespace dice::explore
