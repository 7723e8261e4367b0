// shard wire form (DSHD v4): the frames a ShardCoordinator and a
// dice_shard_worker exchange over pipes.
//
// Every message is one util::Envelope, the sealed envelope DSVC store files
// use too — magic, version byte, FNV-1a checksum verified BEFORE any
// payload parse — with strict typed decode errors and a canonical encode
// (equal values produce equal bytes), because the wire crosses a process
// boundary into a coordinator that must never crash or mis-merge on a
// corrupt, truncated, or adversarial worker. Each record's layout is one
// field list (util/fields.hpp) serving both directions. On a pipe,
// envelopes travel inside u32-big-endian length-prefixed frames
// (append_frame / FrameBuffer).
//
// What travels:
//   kJob            coordinator -> worker: the campaign spec (by NAMED
//                   scenario set — blueprints never travel; both sides
//                   resolve the name through shard::resolve_scenario_set)
//                   plus the canonical cell indices this shard executes.
//   kCellResult     worker -> coordinator: one finished cell — its
//                   CellResult scalars plus the cell's deduplicated fault
//                   reports in serial encounter order, exactly what the
//                   in-process matrix would have handed the merger.
//   kShardDone      worker -> coordinator: terminal receipt — the cell
//                   count (the coordinator rejects a short shard).
//   kCellDescriptor standalone CellDescriptor codec (logging, tests).
//
// Determinism contract (docs/SHARDING.md): everything that pins fault
// bytes — strategies, seeds, implementations, budgets, flags — travels in
// JobSpec::campaign, and cells are addressed by CANONICAL index into
// explore::enumerate_cells, so a worker rebuilds the identical matrix and
// its per-cell results merge byte-identically to a single-process run.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "dice/report.hpp"
#include "explore/campaign.hpp"
#include "explore/matrix.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace dice::shard {

inline constexpr char kMagic[4] = {'D', 'S', 'H', 'D'};
/// v4 dropped the proven-UNSAT key sequences (JobSpec::unsat_seed and
/// ShardDoneMsg::unsat_keys): workers start with an empty solver memo and
/// none crosses back. An older frame fails with `shard.wire.version`.
inline constexpr std::uint8_t kVersion = 4;
/// Hard ceiling on one frame (64 MiB): a corrupt length prefix must not
/// make the coordinator allocate unbounded memory.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 26;

enum class FrameTag : std::uint8_t {
  kJob = 1,
  kCellResult = 2,
  kShardDone = 3,
  kCellDescriptor = 4,
};

/// coordinator -> worker: run these canonical cells of this campaign.
struct JobSpec {
  std::uint64_t shard_id = 0;
  std::string scenario_set;  ///< resolved via shard::resolve_scenario_set
  /// Only the determinism-relevant knobs travel (the campaign field list
  /// in wire.cpp). Process-local fields (pool, caches, trace, observers,
  /// deadline) are left unset on decode: the worker owns its own.
  explore::CampaignOptions campaign;
  std::vector<std::uint64_t> cells;  ///< canonical indices (enumerate_cells)

  bool operator==(const JobSpec&) const = default;
};

/// worker -> coordinator: one finished cell, with the fault evidence the
/// in-process merge path would have received.
struct CellResultMsg {
  std::uint64_t index = 0;  ///< canonical cell index
  explore::CellResult result;
  /// The cell's deduplicated faults in serial encounter order — what
  /// CellMerger::record_faults takes.
  std::vector<core::FaultReport> faults;
};

/// worker -> coordinator: terminal shard receipt.
struct ShardDoneMsg {
  std::uint64_t shard_id = 0;
  /// How many kCellResult frames preceded this. The coordinator rejects a
  /// done whose count disagrees with what it received or was dealt — a
  /// silently short merge is a failed attempt, never a success.
  std::uint64_t cells_sent = 0;

  bool operator==(const ShardDoneMsg&) const = default;
};

/// Owning mirror of explore::CellDescriptor (which borrows string_views):
/// the decode side must own its strings.
struct WireCellDescriptor {
  std::uint64_t index = 0;
  std::string scenario;
  std::string strategy;
  std::uint64_t seed = 0;
  std::string implementation;

  bool operator==(const WireCellDescriptor&) const = default;

  [[nodiscard]] static WireCellDescriptor from_descriptor(
      const explore::CellDescriptor& descriptor);
};

/// Sealed envelopes: magic + version + checksum + (tag + payload), with
/// the checksum covering tag AND payload — a flipped tag must fail typed,
/// never reparse the payload as another message kind. Encoding is
/// canonical: equal message values produce equal bytes.
[[nodiscard]] util::Bytes encode_job(const JobSpec& job);
[[nodiscard]] util::Bytes encode_cell_result(const CellResultMsg& message);
[[nodiscard]] util::Bytes encode_shard_done(const ShardDoneMsg& message);
[[nodiscard]] util::Bytes encode_cell_descriptor(const WireCellDescriptor& descriptor);

using Message = std::variant<JobSpec, CellResultMsg, ShardDoneMsg, WireCellDescriptor>;

/// Decodes one sealed envelope. Typed failures, never a crash:
///   shard.wire.magic      not a DSHD envelope
///   shard.wire.version    unknown version byte
///   shard.wire.tag        unknown frame tag
///   shard.wire.checksum   payload bytes do not match the checksum
///                         (verified BEFORE the payload parser runs)
///   shard.wire.value      a field holds an impossible value (bad enum,
///                         non-0/1 bool) despite a valid checksum
///   shard.wire.trailing   bytes after a complete payload
///   bytes.truncated / bytes.varint.malformed   short or malformed reads
[[nodiscard]] util::Result<Message> decode_message(std::span<const std::uint8_t> data);

/// Appends `message` to `out` as one u32-big-endian length-prefixed frame.
void append_frame(util::Bytes& out, std::span<const std::uint8_t> message);

/// Reassembles length-prefixed frames from an arbitrarily-chunked byte
/// stream (pipes deliver whatever they like). feed() bytes as they arrive;
/// next_frame() yields each complete frame's envelope bytes, nullopt when
/// more input is needed, or shard.wire.frame_oversize for a length prefix
/// past kMaxFrameBytes (the stream is poisoned — the caller must fail the
/// connection, not resynchronize).
class FrameBuffer {
 public:
  void feed(std::span<const std::uint8_t> data);
  [[nodiscard]] util::Result<std::optional<util::Bytes>> next_frame();
  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t pending_bytes() const noexcept { return buf_.size() - pos_; }

 private:
  util::Bytes buf_;
  std::size_t pos_ = 0;
};

}  // namespace dice::shard
