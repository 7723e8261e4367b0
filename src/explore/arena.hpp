// CloneArena: one reusable shadow System per worker — the only way a clone
// is built.
//
// PreparedSnapshot decodes each cut once; the arena removes per-clone
// construction too — each worker keeps a single System alive and
// System::reset_from re-seeds it between tasks (and, in ScenarioMatrix,
// between cells that share a SystemPrototype).
//
// Thread-safety: none by design. An arena belongs to exactly one worker at
// a time — ExplorePool owns one per worker thread, the orchestrator's
// serial path owns its own, and ScenarioMatrix hands pool arenas to the
// cell bodies running on those same workers.
#pragma once

#include <cstdint>
#include <memory>

#include "dice/system.hpp"

namespace dice::explore {

class CloneArena {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;   ///< acquires served without constructing a System
    std::uint64_t rebuilds = 0; ///< constructions (first use or prototype switch)
  };

  /// Returns the arena's System reset to `prepared`'s state, constructing
  /// one first when the arena is empty or was last used with a different
  /// prototype (ScenarioMatrix reuses arenas across cells; same prototype
  /// pointer = reusable). `reused` reports which path was taken. Returns
  /// reset_from's typed error when the reset fails — the arena drops its
  /// (possibly half-seeded) System so the next acquire rebuilds from
  /// scratch.
  [[nodiscard]] util::Result<core::System*> acquire(
      const std::shared_ptr<const core::SystemPrototype>& prototype,
      const snapshot::PreparedSnapshot& prepared, bool& reused);

  /// Drops the held System (tests; memory pressure between soaks).
  void clear() noexcept {
    system_.reset();
    prototype_.reset();
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  std::shared_ptr<const core::SystemPrototype> prototype_;
  std::unique_ptr<core::System> system_;
  Stats stats_;
};

}  // namespace dice::explore
