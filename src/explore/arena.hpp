// CloneArena: one reusable shadow System per worker — the only way a clone
// is built.
//
// PreparedSnapshot decodes each cut once; the arena removes per-clone
// construction too — each worker keeps a single System alive and
// System::reset_from re-seeds it between tasks (and, in ScenarioMatrix,
// between cells that share a SystemPrototype).
//
// Thread-safety: none by design. An arena belongs to exactly one worker at
// a time: ExplorePool owns one per worker, and every clone batch runs on a
// pool (a threadless pool's one arena belongs to its caller).
#pragma once

#include <memory>

#include "dice/system.hpp"

namespace dice::explore {

class CloneArena {
 public:
  /// Returns the arena's System reset to `prepared`'s state, constructing
  /// one first when the arena is empty or was last used with a different
  /// prototype (ScenarioMatrix reuses arenas across cells; same prototype
  /// pointer = reusable). `reused` reports which path was taken; the
  /// registry counts acquires, reuses and rebuilds
  /// (`dice_arena_*_total`). Returns
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

 private:
  std::shared_ptr<const core::SystemPrototype> prototype_;
  std::unique_ptr<core::System> system_;
};

}  // namespace dice::explore
