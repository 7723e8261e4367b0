// Byte-coded checkpoint format (v2): the compact tagged-section stream
// RouterCheckpoint/SessionCheckpoint serialize into since the delta-snapshot
// work. The shape follows the tag + variable-immediate idiom: a leading
// format-version byte, then self-describing sections (tag byte + varint
// payload), closed by an end tag. Counts, ids and pool indices are LEB128
// varints (util::ByteWriter::vu32/vu64); path attributes are pool-indexed so
// a checkpoint carrying the same AS-path/community set on hundreds of routes
// writes it exactly once.
//
// It is the only checkpoint format: both engines refuse a stream whose
// first byte is neither kFormatV2 nor the snapshot layer's delta envelope
// (`router.restore.unknown_format`) — see docs/SNAPSHOT_FORMAT.md for the
// full layout and compatibility contract.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/session.hpp"

namespace dice::bgp::ckpt {

/// First byte of a v2 checkpoint stream. The snapshot layer's "same as
/// baseline" envelope claims 0x03 (snapshot/checkpoint.hpp); every other
/// first byte is refused.
inline constexpr std::uint8_t kFormatV2 = 0x02;

/// Section tags. Unknown tags are a decode error (stable code
/// `router.restore.unknown_tag`), which is what keeps the format evolvable:
/// a reader that does not know a tag refuses the stream instead of
/// misinterpreting it.
enum class Tag : std::uint8_t {
  kEnd = 0,
  kAttrPool = 1,
  kSessions = 2,
  kAdjIn = 3,
  kLocRib = 4,
  kAdjOut = 5,
  kFlips = 6,
};

/// Encode-side attribute pool: dedupes PathAttributes by their serialized
/// v2 bytes (PathAttributes has no operator<; the byte form is the canonical
/// identity). Indices are assigned in first-use order so the emitted pool is
/// deterministic for a deterministic route iteration order.
class AttrPoolEncoder {
 public:
  /// Returns the pool index for `attrs`, serializing it on first use.
  [[nodiscard]] std::uint32_t index_of(const PathAttributes& attrs);

  /// Emits the kTagAttrPool section (tag + vu32 count + entries).
  void emit(util::ByteWriter& writer) const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::unordered_map<std::string, std::uint32_t> index_;
  std::vector<std::string> entries_;  ///< serialized v2 attr bytes, pool order
};

/// Decode-side pool: attributes parsed once, referenced by index.
class AttrPoolDecoder {
 public:
  [[nodiscard]] util::Result<const PathAttributes*> at(std::uint32_t index) const;
  [[nodiscard]] static util::Result<AttrPoolDecoder> parse(util::ByteReader& reader);

 private:
  std::vector<PathAttributes> attrs_;
};

// --- v2 field codecs --------------------------------------------------------

void write_attrs_v2(util::ByteWriter& writer, const PathAttributes& attrs);
[[nodiscard]] util::Result<PathAttributes> read_attrs_v2(util::ByteReader& reader);

void write_route_v2(util::ByteWriter& writer, const Route& route, AttrPoolEncoder& pool);
[[nodiscard]] util::Result<Route> read_route_v2(util::ByteReader& reader,
                                                const AttrPoolDecoder& pool);

void write_rib_v2(util::ByteWriter& writer, const Rib& rib, AttrPoolEncoder& pool);
[[nodiscard]] util::Result<Rib> read_rib_v2(util::ByteReader& reader,
                                            const AttrPoolDecoder& pool);

void write_session_v2(util::ByteWriter& writer, const Session& session);
/// Same byte layout, from a typed checkpoint — for engines whose per-peer
/// FSM is not a Session object (bgp2) yet must emit the identical stream.
void write_session_v2(util::ByteWriter& writer, const SessionCheckpoint& checkpoint);
[[nodiscard]] util::Result<SessionCheckpoint> read_session_v2(util::ByteReader& reader);

// --- full-stream router codec -----------------------------------------------

/// Decoded form of a complete v2 router stream: every tagged section the
/// format carries. This is the interchange shape shared by all node
/// implementations: CheckpointLineage::parse (bgp/checkpoint_lineage.hpp),
/// which every engine's Checkpointable::parse calls, wraps it in the one
/// snapshot::DecodedCheckpoint subclass, bgp::RouterCheckpoint.
struct RouterStateV2 {
  std::vector<std::pair<sim::NodeId, SessionCheckpoint>> sessions;
  std::vector<std::pair<sim::NodeId, Rib>> adj_in;
  Rib loc_rib;
  std::vector<std::pair<sim::NodeId, Rib>> adj_out;
  std::vector<std::pair<util::IpPrefix, std::uint32_t>> best_flips;
};

/// Parses a complete v2 stream from its first byte, which both engines'
/// parse() hand over unread: the snapshot layer's delta envelope fails
/// `router.restore.delta_unresolved`, any byte other than kFormatV2
/// `router.restore.unknown_format`. `known_peer` lets the caller reject
/// session entries for peers it has no FSM for (stable code
/// `router.restore.unknown_peer`).
[[nodiscard]] util::Result<RouterStateV2> read_router_v2(
    util::ByteReader& reader, const std::function<bool(sim::NodeId)>& known_peer);

}  // namespace dice::bgp::ckpt
