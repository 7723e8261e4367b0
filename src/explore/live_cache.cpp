#include "explore/live_cache.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::explore {

namespace {

struct LiveCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& uncacheable;
  obs::Counter& evictions;
};

[[nodiscard]] LiveCacheMetrics& live_cache_metrics() {
  static LiveCacheMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kLiveCacheHits),
      obs::MetricsRegistry::global().counter(obs::names::kLiveCacheMisses),
      obs::MetricsRegistry::global().counter(obs::names::kLiveCacheUncacheable),
      obs::MetricsRegistry::global().counter(obs::names::kLiveCacheEvictions)};
  return metrics;
}

}  // namespace

LiveStateCache::Lookup LiveStateCache::get_or_compute(const Key& key,
                                                      const Compute& compute) {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Entry>& slot = entries_[key];
    const bool inserted = slot == nullptr;
    if (inserted) slot = std::make_shared<Entry>();
    entry = slot;
    entry->last_used = ++lru_clock_;
    // LRU bound: a fresh key past the bound pushes out the least-recently-
    // used resolved entry. The just-inserted entry is unresolved, so it
    // can never evict itself.
    if (inserted) evict_locked(max_entries_);
  }
  if (!entry->resolved.load(std::memory_order_acquire)) {
    // The once-latch. Holding it across compute is the point: a second
    // worker on the same key parks here for the duration of the first
    // worker's bootstrap instead of duplicating it. The map lock is NOT
    // held, so other keys proceed, and clear() may drop the map's entry
    // while we wait — our shared_ptr keeps it alive.
    const std::lock_guard<std::mutex> latch(entry->latch);
    if (!entry->resolved.load(std::memory_order_relaxed)) {
      entry->state = compute();
      entry->resolved.store(true, std::memory_order_release);
      live_cache_metrics().misses.add();
      if (entry->state == nullptr) live_cache_metrics().uncacheable.add();
      return Lookup{entry->state, false};
    }
  }
  // Resolved entries are immutable: hits need no latch.
  live_cache_metrics().hits.add();
  if (entry->state == nullptr) live_cache_metrics().uncacheable.add();
  return Lookup{entry->state, true};
}

std::shared_ptr<const snapshot::PreparedLiveState> LiveStateCache::find(
    const Key& key) const {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    entry = it->second;
    it->second->last_used = ++lru_clock_;
  }
  // Unresolved = a compute is in flight; report absent rather than block.
  if (!entry->resolved.load(std::memory_order_acquire)) return nullptr;
  return entry->state;
}

std::vector<LiveStateCache::ResolvedEntry> LiveStateCache::resolved_entries() const {
  std::vector<ResolvedEntry> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    if (!entry->resolved.load(std::memory_order_acquire)) continue;
    if (entry->state == nullptr) continue;  // uncacheable key
    out.push_back(ResolvedEntry{key, entry->state});
  }
  return out;
}

void LiveStateCache::evict_locked(std::size_t max) {
  while (entries_.size() > max) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      // In-flight computes are never evicted: their worker will publish
      // into the entry, and same-key callers must keep finding the latch.
      if (!it->second->resolved.load(std::memory_order_acquire)) continue;
      if (victim == entries_.end() ||
          it->second->last_used < victim->second->last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // everything left is in flight
    entries_.erase(victim);
    live_cache_metrics().evictions.add();
  }
}

void LiveStateCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

std::size_t LiveStateCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace dice::explore
