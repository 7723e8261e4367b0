// System: a running instance of a blueprint — simulator + network + BGP
// routers + snapshot machinery. DiCE uses two kinds of instances:
//
//   - the *live* system, which runs "for real" and is never disturbed
//     beyond marker frames (paper: DiCE "operates alongside the deployed
//     system but in isolation from it");
//   - *clones*: shadow instances re-seeded from a consistent snapshot
//     (System::reset_from on a per-worker explore::CloneArena System),
//     where inputs are subjected and checks run.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "bgp/node_impl.hpp"
#include "bgp/router.hpp"
#include "bgp/topology.hpp"
#include "dice/checks.hpp"
#include "snapshot/coordinator.hpp"
#include "snapshot/live_state.hpp"
#include "snapshot/prepared.hpp"
#include "snapshot/store.hpp"

namespace dice::core {

/// Blueprint-derived immutables computed once and shared by every System
/// instance of that blueprint: the live system and every clone-arena
/// System. Building ~32 clones per episode used to redo this work (address
/// book, membership set) 32 times.
class SystemPrototype {
 public:
  explicit SystemPrototype(bgp::SystemBlueprint blueprint);

  [[nodiscard]] const bgp::SystemBlueprint& blueprint() const noexcept {
    return blueprint_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return blueprint_.size(); }
  [[nodiscard]] const std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>>&
  address_book() const noexcept {
    return address_book_;
  }
  [[nodiscard]] const std::set<sim::NodeId>& members() const noexcept { return members_; }
  /// Prefix-hash owners for the origin check; configs alone decide them.
  [[nodiscard]] const OriginOwners& origin_owners() const noexcept { return origin_owners_; }

 private:
  bgp::SystemBlueprint blueprint_;
  std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book_;
  std::set<sim::NodeId> members_;
  OriginOwners origin_owners_;
};

class System {
 public:
  /// Builds a live system: routers attached, links connected, sessions
  /// NOT yet started (call start()). The blueprint overload derives a
  /// private prototype; the shared-prototype overload is the cheap path
  /// (clone arenas construct many Systems from one prototype).
  explicit System(bgp::SystemBlueprint blueprint);
  explicit System(std::shared_ptr<const SystemPrototype> prototype);
  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Starts every router (session establishment + route origination).
  void start();

  /// Runs until no foreground events remain. Returns true on quiescence
  /// within the budgets (a dispute wheel never quiesces — that outcome is
  /// itself a check signal).
  bool converge(std::size_t max_events = 2'000'000,
                sim::Time max_time = 3600 * sim::kSecond);

  struct ConvergeOutcome {
    bool quiesced = false;
    bool oscillation_exit = false;  ///< stopped early: a prefix hit the flip limit
  };
  /// converge() with an optional oscillation early-exit: when
  /// `flip_exit_threshold` > 0, the run stops as soon as any router's
  /// per-prefix best-route flip count reaches it (polled every few hundred
  /// events, deterministically). The oscillation evidence is already
  /// conclusive at that point — burning the rest of the event budget on a
  /// dispute wheel proves nothing more. Threshold 0 reproduces converge()
  /// exactly.
  [[nodiscard]] ConvergeOutcome converge_bounded(std::size_t max_events,
                                                 sim::Time max_time,
                                                 std::uint32_t flip_exit_threshold = 0);

  /// Takes a consistent snapshot with `initiator` running the marker
  /// protocol; drives the simulation until the snapshot completes.
  /// Returns the snapshot id, or 0 on failure (e.g. partitioned system).
  /// With delta checkpoints enabled, routers whose state did not change
  /// since the previous prepared snapshot write a one-byte "same as
  /// baseline" envelope instead of a full checkpoint.
  [[nodiscard]] snapshot::SnapshotId take_snapshot(sim::NodeId initiator);

  /// Enables delta checkpoints: each take_snapshot advertises the last
  /// successfully *prepared* snapshot as the baseline, and prepare_snapshot
  /// resolves delta envelopes against it. Off by default — a cut meant for
  /// reset_from_raw (raw bytes, no baseline) must be taken with it off;
  /// the Orchestrator always turns it on for its live system.
  void set_delta_checkpoints(bool enabled) noexcept { delta_checkpoints_ = enabled; }
  [[nodiscard]] bool delta_checkpoints() const noexcept { return delta_checkpoints_; }

  /// Decode-once: parses every checkpoint of stored snapshot `id` into a
  /// PreparedSnapshot, publishes it through the store (shared_ptr), and
  /// returns it. Idempotent — a second call returns the published form.
  /// nullptr when the snapshot is unknown or malformed.
  [[nodiscard]] std::shared_ptr<const snapshot::PreparedSnapshot> prepare_snapshot(
      snapshot::SnapshotId id);

  /// Re-seeds THIS instance from pre-decoded state: rewinds simulator and
  /// channels, resets every router, applies the typed checkpoints and
  /// re-injects the prepared frame schedule. No byte decoding, no
  /// construction — the restore-many half of decode-once/restore-many.
  /// The result is bit-identical to the same reset of a freshly built
  /// System. This is the ONE apply path; every other restore wraps it.
  /// `resume_at` fast-forwards the rewound clock before any timer re-arms
  /// (live-state resume); clones keep the default 0.
  [[nodiscard]] util::Status reset_from(const snapshot::PreparedSnapshot& prepared,
                                        sim::Time resume_at = 0);

  /// Raw-cut wrapper over reset_from: decodes `snap` into a temporary
  /// PreparedSnapshot (one parse per node, no baseline) and resets from it,
  /// for a cut restored exactly once. The decode is the only per-route
  /// cost — apply shares the decoded RIB tables (copy-on-write,
  /// bgp/rib.hpp), which the router then owns alone once the temporary is
  /// dropped. A live state resumes through resume_from instead, which keeps
  /// its decode for every later resume. Delta-encoded cuts
  /// (kCheckpointSameAsBaseline envelopes) fail with
  /// `prepared.delta.baseline_mismatch` — persisted captures are always
  /// standalone (live_state.hpp).
  [[nodiscard]] util::Status reset_from_raw(const snapshot::Snapshot& snap,
                                            sim::Time resume_at = 0);

  /// Captures this (converged, live) system's state as the cacheable
  /// bootstrap artifact: takes a consistent snapshot, prepares it
  /// (decode-once) and wraps it with the simulator resume point. The raw
  /// snapshot is erased from the store again — the capture is standalone
  /// and must not perturb the per-episode snapshot lifecycle. Marker
  /// frames sweep the system but leave every router's protocol state
  /// untouched, so the caller's own episodes are unaffected. nullptr when
  /// the snapshot cannot complete (partition) or fails to prepare.
  [[nodiscard]] std::shared_ptr<snapshot::PreparedLiveState> capture_live_state(
      sim::NodeId initiator = 0);

  /// Re-seeds THIS instance as a *live* system from a captured bootstrap
  /// state: reset_from the state's decoded cut (decoded against this
  /// System's routers if no resume has decoded it yet), with the clock
  /// resumed at the donor's bootstrap end. Valid on a freshly constructed
  /// (never started) System — the LiveStateCache fast path that replaces
  /// start()+converge. A cut that no longer decodes fails typed and leaves
  /// this System untouched.
  [[nodiscard]] util::Status resume_from(const snapshot::PreparedLiveState& state);

  /// Injects a raw protocol message into `target` as if sent by `from`
  /// (DiCE input subjection on clones).
  void inject_message(sim::NodeId from, sim::NodeId target, util::Bytes message);

  [[nodiscard]] std::size_t size() const noexcept { return routers_.size(); }
  /// Nodes are NodeImplementations — the harness never assumes which engine
  /// is behind a node id (heterogeneous federation, docs/HETEROGENEITY.md).
  [[nodiscard]] bgp::NodeImplementation& router(sim::NodeId id) { return *routers_.at(id); }
  [[nodiscard]] const bgp::NodeImplementation& router(sim::NodeId id) const {
    return *routers_.at(id);
  }
  /// Checked downcast to the reference engine, for tests/harnesses that
  /// genuinely need BgpRouter internals (per-session introspection, adj-RIB
  /// access). Throws std::logic_error when the node runs another
  /// implementation.
  [[nodiscard]] bgp::BgpRouter& bgp_router(sim::NodeId id);
  [[nodiscard]] const bgp::BgpRouter& bgp_router(sim::NodeId id) const;
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] sim::Network& network() noexcept { return net_; }
  [[nodiscard]] const bgp::SystemBlueprint& blueprint() const noexcept {
    return prototype_->blueprint();
  }
  [[nodiscard]] const std::shared_ptr<const SystemPrototype>& prototype() const noexcept {
    return prototype_;
  }
  [[nodiscard]] snapshot::SnapshotStore& snapshots() noexcept { return store_; }

  /// Sum of all routers' Loc-RIB sizes (progress metric for benches).
  [[nodiscard]] std::size_t total_loc_rib_routes() const;
  /// All established sessions count (both directions).
  [[nodiscard]] std::size_t established_sessions() const;
  /// node id -> ASN map for the origin aggregation step.
  [[nodiscard]] std::map<sim::NodeId, bgp::Asn> node_asns() const;

 private:
  /// Maps node ids to this System's routers for PreparedSnapshot::build.
  [[nodiscard]] snapshot::PreparedSnapshot::NodeResolver node_resolver() const;

  std::shared_ptr<const SystemPrototype> prototype_;
  sim::Simulator sim_;
  sim::Network net_;
  snapshot::SnapshotStore store_;
  snapshot::SnapshotCoordinator coordinator_;
  std::vector<std::unique_ptr<bgp::NodeImplementation>> routers_;
  bool delta_checkpoints_ = false;
  /// Baseline for the next delta snapshot: the most recently prepared
  /// snapshot. The shared_ptr keeps its decoded checkpoints alive even
  /// after the store trims the entry, so delta resolution never dangles.
  std::shared_ptr<const snapshot::PreparedSnapshot> delta_baseline_;
};

}  // namespace dice::core
