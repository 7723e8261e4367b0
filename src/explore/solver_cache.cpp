#include "explore/solver_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::explore {

namespace {

struct SolverCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& stores;
};

[[nodiscard]] SolverCacheMetrics& solver_cache_metrics() {
  static SolverCacheMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kSolverCacheHits),
      obs::MetricsRegistry::global().counter(obs::names::kSolverCacheMisses),
      obs::MetricsRegistry::global().counter(obs::names::kSolverCacheStores)};
  return metrics;
}

}  // namespace

bool SolverCache::lookup(std::uint64_t key, std::optional<util::Bytes>& result) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = entries_.find(key); it != entries_.end()) {
      result = it->second;
      hits_.fetch_add(1, std::memory_order_relaxed);
      solver_cache_metrics().hits.add();
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  solver_cache_metrics().misses.add();
  return false;
}

void SolverCache::store(std::uint64_t key, const std::optional<util::Bytes>& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // First write wins: both a model and an UNSAT proof are sound, and
  // keeping the incumbent makes concurrent racing stores commutative.
  entries_.try_emplace(key, result);
  stores_.fetch_add(1, std::memory_order_relaxed);
  solver_cache_metrics().stores.add();
}

SolverCache::Stats SolverCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.stores = stores_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mutex_);
  stats.entries = entries_.size();
  for (const auto& [key, value] : entries_) {
    if (value.has_value()) ++stats.sat_entries;
  }
  return stats;
}

std::size_t SolverCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::uint64_t> SolverCache::unsat_keys() const {
  std::vector<std::uint64_t> keys;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [key, value] : entries_) {
      if (!value.has_value()) keys.push_back(key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void SolverCache::seed_unsat(const std::vector<std::uint64_t>& keys) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const std::uint64_t key : keys) entries_.try_emplace(key, std::nullopt);
}

void SolverCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

}  // namespace dice::explore
