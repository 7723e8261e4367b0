#include "explore/arena.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::explore {

namespace {

struct ArenaMetrics {
  obs::Counter& acquires;
  obs::Counter& reuses;
  obs::Counter& rebuilds;
};

[[nodiscard]] ArenaMetrics& arena_metrics() {
  static ArenaMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kArenaAcquires),
      obs::MetricsRegistry::global().counter(obs::names::kArenaReuses),
      obs::MetricsRegistry::global().counter(obs::names::kArenaRebuilds)};
  return metrics;
}

}  // namespace

util::Result<core::System*> CloneArena::acquire(
    const std::shared_ptr<const core::SystemPrototype>& prototype,
    const snapshot::PreparedSnapshot& prepared, bool& reused) {
  ArenaMetrics& metrics = arena_metrics();
  metrics.acquires.add();
  if (system_ == nullptr || prototype_.get() != prototype.get()) {
    prototype_ = prototype;
    system_ = std::make_unique<core::System>(prototype);
    metrics.rebuilds.add();
    reused = false;
  } else {
    metrics.reuses.add();
    reused = true;
  }
  if (auto status = system_->reset_from(prepared); !status) {
    clear();
    return status.error();
  }
  return system_.get();
}

}  // namespace dice::explore
