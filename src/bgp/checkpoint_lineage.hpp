// CheckpointLineage: the checkpoint bookkeeping every BGP engine composes.
// It is harness state, not BGP behaviour: the RIB and flip tables the v2
// stream (bgp/checkpoint_codec.hpp) carries besides the sessions, the
// version counter and last-encode memo behind the one-byte delta envelope,
// and the clean-node record (NodeImplementation::clean_checkpoint). Each
// engine keeps its own sessions, import, decision and export, and supplies
// only its session entries, on write and on apply.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bgp/checkpoint_codec.hpp"
#include "bgp/rib.hpp"
#include "snapshot/checkpoint.hpp"

namespace dice::bgp {

/// Typed form of a v2 checkpoint stream, whichever engine parsed it: parsed
/// once and shared read-only by all clones restoring from the same snapshot.
struct RouterCheckpoint final : snapshot::DecodedCheckpoint {
  ckpt::RouterStateV2 state;
};

class CheckpointLineage {
 public:
  /// Writes the kSessions section payload: a vu32 count, then per peer its
  /// vu32 node id and ckpt::write_session_v2 entry, in peer order.
  using SessionWriter = std::function<void(util::ByteWriter&)>;
  /// Restores the decoded session entries into the engine's own FSMs.
  using SessionApplier = std::function<util::Status(
      const std::vector<std::pair<sim::NodeId, SessionCheckpoint>>&)>;

  explicit CheckpointLineage(SessionWriter write_sessions)
      : write_sessions_(std::move(write_sessions)) {}
  /// The session writer holds the owning engine's address: a copy would
  /// serialize the wrong engine's sessions.
  CheckpointLineage(const CheckpointLineage&) = delete;
  CheckpointLineage& operator=(const CheckpointLineage&) = delete;

  /// The checkpointed route tables. The engine's BGP logic owns what goes
  /// into them; it must bump() the version with every change.
  std::map<sim::NodeId, Rib> adj_in;
  Rib loc_rib;
  std::map<sim::NodeId, Rib> adj_out;

  [[nodiscard]] const std::map<util::IpPrefix, std::uint32_t>& best_flips() const noexcept {
    return best_flips_;
  }
  /// Highest per-prefix flip count since the counters were last reset —
  /// O(1), so the oscillation early-exit poll stays cheap.
  [[nodiscard]] std::uint32_t max_best_flips() const noexcept { return max_best_flips_; }
  /// Counts one best-route change for `prefix`.
  void count_flip(const util::IpPrefix& prefix) {
    max_best_flips_ = std::max(max_best_flips_, ++best_flips_[prefix]);
  }
  /// Flip counters are checkpointed state, but no route-derived check reads
  /// them: clearing them keeps a clean node clean.
  void reset_flip_counters();

  /// Records a mutation of checkpointed state (sessions, RIBs, flip
  /// counters). Over-bumping is safe; a missed bump ships a stale delta.
  void bump() noexcept { ++version_; }
  /// Monotonic churn counter. Equal versions => byte-identical checkpoints.
  [[nodiscard]] std::uint64_t state_version() const noexcept { return version_; }

  /// Writes the full v2 stream (Checkpointable::checkpoint).
  void checkpoint(util::ByteWriter& writer) const;
  /// Delta-aware encode: when `baseline` is the snapshot this node last
  /// encoded into and the version is unchanged since, writes the one-byte
  /// kCheckpointSameAsBaseline envelope; otherwise the full stream. The
  /// returned hash is always the full-state hash.
  [[nodiscard]] std::uint64_t encode_checkpoint(util::ByteWriter& writer,
                                                snapshot::SnapshotId this_snapshot,
                                                snapshot::SnapshotId baseline);
  /// Decodes a v2 stream into a RouterCheckpoint. `known_peer` rejects
  /// session entries for peers the engine has no FSM for.
  [[nodiscard]] static util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>>
  parse(util::ByteReader& reader, const std::function<bool(sim::NodeId)>& known_peer);
  /// Restores a RouterCheckpoint: hands its sessions to `apply_sessions`,
  /// then shares its tables (copy-on-write, bgp/rib.hpp) and records it
  /// as the clean-node checkpoint.
  [[nodiscard]] util::Status apply(const snapshot::DecodedCheckpoint& state,
                                   const SessionApplier& apply_sessions);
  /// The checkpoint apply() restored, while the version is still the one
  /// apply() left.
  [[nodiscard]] std::shared_ptr<const snapshot::DecodedCheckpoint> clean_checkpoint() const {
    return applied_version_ == version_ ? applied_.lock() : nullptr;
  }
  /// Empties the tables and forgets the lineage (clone-arena reuse).
  void reset_for_reuse();

 private:
  SessionWriter write_sessions_;
  std::map<util::IpPrefix, std::uint32_t> best_flips_;
  std::uint32_t max_best_flips_ = 0;

  std::uint64_t version_ = 0;
  /// The snapshot this node last encoded into: a delta is legal iff the
  /// requested baseline IS that snapshot and the version is unchanged since.
  struct LastCheckpoint {
    snapshot::SnapshotId snapshot = 0;  ///< 0 = never encoded / invalidated
    std::uint64_t version = 0;
    std::uint64_t hash = 0;  ///< full-state hash at `version`
  };
  LastCheckpoint last_checkpoint_;
  std::weak_ptr<const snapshot::DecodedCheckpoint> applied_;
  std::uint64_t applied_version_ = 0;
};

}  // namespace dice::bgp
