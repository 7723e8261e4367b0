// PreparedSnapshot: the decode-once form of a consistent snapshot.
//
// A raw Snapshot stores each node's checkpoint as opaque bytes and each
// channel's in-flight frames as raw payload lists — cheap to capture, but
// not restorable without a decode. A PreparedSnapshot is produced exactly
// once per take_snapshot: every checkpoint parsed into its typed
// DecodedCheckpoint, the in-flight payloads flattened into a ready-to-inject
// frame schedule. It is immutable after build and published through the
// SnapshotStore as shared_ptr<const>, so any number of workers can restore
// clones from it concurrently while the store trims older entries. It is
// also the only restore input: System::reset_from applies it, a live-state
// resume decodes one once into the state's shared slot
// (PreparedLiveState::decoded), and System::reset_from_raw builds a
// temporary one from a raw cut.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "snapshot/store.hpp"

namespace dice::snapshot {

/// One in-flight frame of the cut, pre-scheduled: inject `payload` on the
/// directed channel from->to at `offset` (staggered one microsecond apart
/// per channel to preserve recorded ordering).
struct PreparedFrame {
  sim::NodeId from = sim::kInvalidNode;
  sim::NodeId to = sim::kInvalidNode;
  util::Bytes payload;
  sim::Time offset = 0;
};

class PreparedSnapshot {
 public:
  struct NodeState {
    std::shared_ptr<const DecodedCheckpoint> state;
    std::uint64_t hash = 0;  ///< checkpoint hash (consistency fingerprint)
  };

  /// Maps a node id to the Checkpointable that knows how to parse its
  /// checkpoint (the live system's router). nullptr = unknown node.
  using NodeResolver = std::function<const Checkpointable*(sim::NodeId)>;

  /// Parses every node checkpoint exactly once and pre-builds the in-flight
  /// frame schedule. Fails if any node is unresolvable or any checkpoint is
  /// malformed (the raw snapshot stays untouched either way).
  ///
  /// `baseline` resolves delta checkpoints: a node whose stream is the
  /// one-byte kCheckpointSameAsBaseline envelope shares the baseline's
  /// DecodedCheckpoint instead of decoding anything. Required (with a
  /// matching id) when `snap.baseline_id != 0` and any node rode the delta;
  /// a missing or wrong baseline fails with the stable code
  /// `prepared.delta.baseline_mismatch`, a baseline whose node hash moved
  /// with `prepared.delta.hash_mismatch` (never a silent wrong restore).
  [[nodiscard]] static util::Result<std::shared_ptr<const PreparedSnapshot>> build(
      const Snapshot& snap, const NodeResolver& resolver,
      const PreparedSnapshot* baseline = nullptr);

  [[nodiscard]] SnapshotId id() const noexcept { return id_; }
  [[nodiscard]] sim::Time taken_at() const noexcept { return taken_at_; }
  /// Same value as the source Snapshot::cut_hash() (computed once at build).
  [[nodiscard]] std::uint64_t cut_hash() const noexcept { return cut_hash_; }
  [[nodiscard]] std::size_t state_bytes() const noexcept { return state_bytes_; }
  [[nodiscard]] const std::map<sim::NodeId, NodeState>& nodes() const noexcept {
    return nodes_;
  }
  /// Channel-key order, per-channel offsets ascending — replaying this
  /// schedule re-injects the cut's in-flight frames in recorded order.
  [[nodiscard]] const std::vector<PreparedFrame>& schedule() const noexcept {
    return schedule_;
  }

 private:
  PreparedSnapshot() = default;

  SnapshotId id_ = 0;
  sim::Time taken_at_ = 0;
  std::uint64_t cut_hash_ = 0;
  std::size_t state_bytes_ = 0;
  std::map<sim::NodeId, NodeState> nodes_;
  std::vector<PreparedFrame> schedule_;
};

}  // namespace dice::snapshot
