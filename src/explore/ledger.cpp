#include "explore/ledger.hpp"

#include <algorithm>

namespace dice::explore {

template <typename Report>
bool FaultLedger::insert(std::uint64_t key, std::uint64_t priority, Report&& report) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(key, Entry{std::forward<Report>(report), priority});
    return true;
  }
  if (priority < it->second.priority) {
    // A lower-priority (earlier in serial order) duplicate replaces the
    // incumbent so the surviving evidence is scheduling-independent.
    it->second = Entry{std::forward<Report>(report), priority};
  }
  return false;
}

bool FaultLedger::record(core::FaultReport report, std::uint64_t priority,
                         std::uint64_t key_salt) {
  const std::uint64_t key = salted_fault_key(core::fault_key(report), key_salt);
  return insert(key, priority, std::move(report));
}

std::size_t FaultLedger::record_all(std::vector<core::FaultReport>&& reports,
                                    std::uint64_t base_priority, std::uint64_t key_salt) {
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (record(std::move(reports[i]), base_priority + i, key_salt)) ++fresh;
  }
  return fresh;
}

std::size_t FaultLedger::record_all(const std::vector<core::FaultReport>& reports,
                                    std::uint64_t base_priority, std::uint64_t key_salt) {
  // Copy-on-land: duplicates (the common case in long soaks) never copy.
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const std::uint64_t key = salted_fault_key(core::fault_key(reports[i]), key_salt);
    if (insert(key, base_priority + i, reports[i])) ++fresh;
  }
  return fresh;
}

bool FaultLedger::contains(std::uint64_t fault_key, std::uint64_t key_salt) const {
  const std::uint64_t key = salted_fault_key(fault_key, key_salt);
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.contains(key);
}

std::size_t FaultLedger::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<core::FaultReport> FaultLedger::snapshot_sorted() const {
  std::vector<Entry> entries;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) entries.push_back(entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.priority < b.priority; });
  std::vector<core::FaultReport> reports;
  reports.reserve(entries.size());
  for (Entry& entry : entries) reports.push_back(std::move(entry.report));
  return reports;
}

void FaultLedger::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace dice::explore
