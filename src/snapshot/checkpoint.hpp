// Lightweight node checkpoints (paper Fig. 2 step 2: "establish consistent
// shadow snapshot of local node checkpoints"). A Checkpointable serializes
// its *dynamic* state — configuration is part of the system blueprint and
// is not duplicated into checkpoints, which is what keeps them lightweight.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace dice::snapshot {

using SnapshotId = std::uint64_t;

/// Snapshot-layer envelope for delta checkpoints: a node whose state did not
/// change since the baseline snapshot writes exactly this one byte instead
/// of a full checkpoint; PreparedSnapshot::build resolves it by sharing the
/// baseline's DecodedCheckpoint. The value is reserved across checkpoint
/// format owners: the byte-coded BGP format starts with 0x02
/// (bgp::ckpt::kFormatV2); 0x00 and 0x01 (the retired fixed-width format)
/// are refused as unknown.
inline constexpr std::uint8_t kCheckpointSameAsBaseline = 0x03;

/// Derived data that a layer above the snapshot memoizes per decoded
/// checkpoint (the dice checks keep clean-node verdicts here). Opaque to
/// the snapshot layer; the owner downcasts what it published.
class CheckpointMemo {
 public:
  virtual ~CheckpointMemo() = default;
};

/// Typed, immutable result of decoding a checkpoint once. Concrete
/// subclasses live with the protocol (bgp::RouterCheckpoint, the one form
/// every BGP engine's v2 stream decodes into); the snapshot layer only
/// needs an opaque, shareable handle so one decode can feed many clones
/// (PreparedSnapshot holds these via shared_ptr<const>). A node that
/// applied one keeps a weak_ptr to it (weak_from_this) to name the state
/// it restored from; one not owned by a shared_ptr names nothing.
class DecodedCheckpoint : public std::enable_shared_from_this<DecodedCheckpoint> {
 public:
  virtual ~DecodedCheckpoint() = default;

  /// The memo slot. It lives and dies with this checkpoint, so a memo can
  /// neither outlive the state it was derived from nor be found again
  /// under a recycled address. Any thread may read or replace it.
  [[nodiscard]] std::shared_ptr<const CheckpointMemo> memo() const {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    return memo_;
  }
  void set_memo(std::shared_ptr<const CheckpointMemo> memo) const {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_ = std::move(memo);
  }

 private:
  mutable std::mutex memo_mutex_;
  mutable std::shared_ptr<const CheckpointMemo> memo_;
};

class Checkpointable {
 public:
  virtual ~Checkpointable() = default;

  /// Serializes dynamic state (RIBs, session FSM states, counters).
  virtual void checkpoint(util::ByteWriter& writer) const = 0;

  /// Decodes bytes produced by checkpoint() into typed, immutable state.
  /// Const and side-effect free: the result is shareable across any number
  /// of clones (decode once, apply many).
  [[nodiscard]] virtual util::Result<std::shared_ptr<const DecodedCheckpoint>> parse(
      util::ByteReader& reader) const = 0;

  /// Applies previously parsed state to this instance — the cheap half of
  /// restore (no byte decoding). Implementations must re-arm any timers
  /// implied by the applied state.
  [[nodiscard]] virtual util::Status apply(const DecodedCheckpoint& state) = 0;

  /// Content hash of the checkpointed state; clones must reproduce it.
  [[nodiscard]] virtual std::uint64_t state_hash() const;

  /// Delta-aware encode for the snapshot path. `baseline` is the snapshot id
  /// the eventual reader resolves deltas against (0 = no baseline, encode
  /// full). Implementations that track churn may write the one-byte
  /// kCheckpointSameAsBaseline envelope when their state is provably
  /// unchanged since they encoded into `baseline`; the returned hash must
  /// always be the FULL-state content hash (it feeds Snapshot::cut_hash,
  /// which must not depend on the encoding chosen). The default encodes a
  /// full checkpoint unconditionally.
  [[nodiscard]] virtual std::uint64_t encode_checkpoint(util::ByteWriter& writer,
                                                        SnapshotId this_snapshot,
                                                        SnapshotId baseline);
};

/// A captured node checkpoint.
struct Checkpoint {
  std::uint32_t node = 0;
  util::Bytes state;
  std::uint64_t hash = 0;
};

}  // namespace dice::snapshot
