#include "bgp/checkpoint_codec.hpp"

#include <algorithm>

#include "snapshot/checkpoint.hpp"

namespace dice::bgp::ckpt {

using util::ByteReader;
using util::ByteWriter;
using util::make_error;
using util::Result;

namespace {
// Presence/flag bits of the leading attrs byte: origin in the low 2 bits,
// optional-field presence above them.
constexpr std::uint8_t kOriginMask = 0x03;
constexpr std::uint8_t kHasMed = 0x04;
constexpr std::uint8_t kHasLocalPref = 0x08;
constexpr std::uint8_t kAtomicAggregate = 0x10;
constexpr std::uint8_t kHasAggregator = 0x20;
}  // namespace

void write_attrs_v2(ByteWriter& w, const PathAttributes& attrs) {
  std::uint8_t head = static_cast<std::uint8_t>(attrs.origin) & kOriginMask;
  if (attrs.med) head |= kHasMed;
  if (attrs.local_pref) head |= kHasLocalPref;
  if (attrs.atomic_aggregate) head |= kAtomicAggregate;
  if (attrs.aggregator) head |= kHasAggregator;
  w.u8(head);
  w.vu32(static_cast<std::uint32_t>(attrs.as_path.segments().size()));
  for (const AsSegment& seg : attrs.as_path.segments()) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.vu32(static_cast<std::uint32_t>(seg.asns.size()));
    for (Asn asn : seg.asns) w.vu32(asn);
  }
  w.u32(attrs.next_hop.value());  // IPs stay fixed-width: varints gain nothing
  if (attrs.med) w.vu32(*attrs.med);
  if (attrs.local_pref) w.vu32(*attrs.local_pref);
  if (attrs.aggregator) {
    w.vu32(attrs.aggregator->asn);
    w.u32(attrs.aggregator->address.value());
  }
  w.vu32(static_cast<std::uint32_t>(attrs.communities.size()));
  for (Community c : attrs.communities) w.u32(c);
  w.vu32(static_cast<std::uint32_t>(attrs.unknown.size()));
  for (const UnknownAttr& ua : attrs.unknown) {
    w.u8(ua.flags);
    w.u8(ua.type);
    w.vu32(static_cast<std::uint32_t>(ua.value.size()));
    w.raw(ua.value);
  }
}

Result<PathAttributes> read_attrs_v2(ByteReader& r) {
  PathAttributes attrs;
  auto head = r.u8();
  if (!head) return head.error();
  if ((head.value() & kOriginMask) > 2) return make_error("rib.attrs.origin");
  attrs.origin = static_cast<Origin>(head.value() & kOriginMask);
  auto seg_count = r.vu32();
  if (!seg_count) return seg_count.error();
  for (std::uint32_t i = 0; i < seg_count.value(); ++i) {
    auto type = r.u8();
    auto count = r.vu32();
    if (!type || !count) return make_error("rib.attrs.as_path");
    AsSegment seg;
    seg.type = static_cast<AsSegmentType>(type.value());
    // Clamp: each ASN costs >= 1 stream byte, so a count beyond remaining()
    // is hostile — don't let it size an allocation before the reads fail.
    seg.asns.reserve(std::min<std::size_t>(count.value(), r.remaining()));
    for (std::uint32_t j = 0; j < count.value(); ++j) {
      auto asn = r.vu32();
      if (!asn) return asn.error();
      seg.asns.push_back(asn.value());
    }
    attrs.as_path.segments().push_back(std::move(seg));
  }
  auto next_hop = r.u32();
  if (!next_hop) return next_hop.error();
  attrs.next_hop = util::IpAddress{next_hop.value()};
  if ((head.value() & kHasMed) != 0) {
    auto med = r.vu32();
    if (!med) return med.error();
    attrs.med = med.value();
  }
  if ((head.value() & kHasLocalPref) != 0) {
    auto lp = r.vu32();
    if (!lp) return lp.error();
    attrs.local_pref = lp.value();
  }
  attrs.atomic_aggregate = (head.value() & kAtomicAggregate) != 0;
  if ((head.value() & kHasAggregator) != 0) {
    auto asn = r.vu32();
    auto addr = r.u32();
    if (!asn || !addr) return make_error("rib.attrs.aggregator");
    attrs.aggregator = Aggregator{asn.value(), util::IpAddress{addr.value()}};
  }
  auto comm_count = r.vu32();
  if (!comm_count) return comm_count.error();
  for (std::uint32_t i = 0; i < comm_count.value(); ++i) {
    auto c = r.u32();
    if (!c) return c.error();
    attrs.add_community(c.value());
  }
  auto unknown_count = r.vu32();
  if (!unknown_count) return unknown_count.error();
  for (std::uint32_t i = 0; i < unknown_count.value(); ++i) {
    UnknownAttr ua;
    auto flags = r.u8();
    auto type = r.u8();
    auto len = r.vu32();
    if (!flags || !type || !len) return make_error("rib.attrs.unknown");
    ua.flags = flags.value();
    ua.type = type.value();
    auto body = r.raw(len.value());
    if (!body) return body.error();
    ua.value.assign(body.value().begin(), body.value().end());
    attrs.unknown.push_back(std::move(ua));
  }
  return attrs;
}

std::uint32_t AttrPoolEncoder::index_of(const PathAttributes& attrs) {
  ByteWriter w;
  write_attrs_v2(w, attrs);
  std::string key(w.span().begin(), w.span().end());
  auto [it, inserted] = index_.try_emplace(std::move(key),
                                           static_cast<std::uint32_t>(entries_.size()));
  if (inserted) entries_.push_back(it->first);
  return it->second;
}

void AttrPoolEncoder::emit(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(Tag::kAttrPool));
  w.vu32(static_cast<std::uint32_t>(entries_.size()));
  for (const std::string& entry : entries_) {
    w.raw({reinterpret_cast<const std::uint8_t*>(entry.data()), entry.size()});
  }
}

Result<const PathAttributes*> AttrPoolDecoder::at(std::uint32_t index) const {
  if (index >= attrs_.size()) {
    return make_error("router.restore.attr_index", std::to_string(index));
  }
  return &attrs_[index];
}

Result<AttrPoolDecoder> AttrPoolDecoder::parse(ByteReader& r) {
  AttrPoolDecoder pool;
  auto count = r.vu32();
  if (!count) return count.error();
  // Each pool entry costs >= 8 stream bytes; a count beyond that bound is
  // hostile and must not size an allocation before the reads fail.
  pool.attrs_.reserve(std::min<std::size_t>(count.value(), r.remaining() / 8 + 1));
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto attrs = read_attrs_v2(r);
    if (!attrs) return attrs.error();
    pool.attrs_.push_back(std::move(attrs).take());
  }
  return pool;
}

void write_route_v2(ByteWriter& w, const Route& route, AttrPoolEncoder& pool) {
  w.u32(route.prefix.address().value());
  w.u8(route.prefix.length());
  w.vu32(pool.index_of(route.attrs));
  w.vu32(route.source.peer_node);
  w.vu32(route.source.peer_asn);
  w.vu32(route.source.peer_router_id);
  w.u32(route.source.peer_address.value());
  w.u8(route.source.ebgp ? 1 : 0);
}

Result<Route> read_route_v2(ByteReader& r, const AttrPoolDecoder& pool) {
  Route route;
  auto addr = r.u32();
  auto len = r.u8();
  if (!addr || !len) return make_error("rib.route.prefix");
  route.prefix = util::IpPrefix{util::IpAddress{addr.value()}, len.value()};
  auto attr_index = r.vu32();
  if (!attr_index) return attr_index.error();
  auto attrs = pool.at(attr_index.value());
  if (!attrs) return attrs.error();
  route.attrs = *attrs.value();
  auto peer_node = r.vu32();
  auto peer_asn = r.vu32();
  auto peer_id = r.vu32();
  auto peer_addr = r.u32();
  auto ebgp = r.u8();
  if (!peer_node || !peer_asn || !peer_id || !peer_addr || !ebgp) {
    return make_error("rib.route.source");
  }
  route.source.peer_node = peer_node.value();
  route.source.peer_asn = peer_asn.value();
  route.source.peer_router_id = peer_id.value();
  route.source.peer_address = util::IpAddress{peer_addr.value()};
  route.source.ebgp = ebgp.value() != 0;
  return route;
}

void write_rib_v2(ByteWriter& w, const Rib& rib, AttrPoolEncoder& pool) {
  w.vu32(static_cast<std::uint32_t>(rib.size()));
  for (const auto& [prefix, route] : rib.table()) write_route_v2(w, route, pool);
}

Result<Rib> read_rib_v2(ByteReader& r, const AttrPoolDecoder& pool) {
  Rib rib;
  auto count = r.vu32();
  if (!count) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto route = read_route_v2(r, pool);
    if (!route) return route.error();
    rib.upsert(std::move(route).take());
  }
  return rib;
}

void write_session_v2(ByteWriter& w, const Session& session) {
  w.u8(static_cast<std::uint8_t>(session.state()));
  w.vu32(session.peer_router_id());
  w.vu32(session.negotiated_hold());
}

void write_session_v2(ByteWriter& w, const SessionCheckpoint& checkpoint) {
  w.u8(static_cast<std::uint8_t>(checkpoint.state));
  w.vu32(checkpoint.peer_router_id);
  w.vu32(checkpoint.negotiated_hold);
}

Result<SessionCheckpoint> read_session_v2(ByteReader& r) {
  auto state = r.u8();
  auto peer_id = r.vu32();
  auto hold = r.vu32();
  if (!state || !peer_id || !hold) return make_error("session.restore.truncated");
  if (state.value() > static_cast<std::uint8_t>(SessionState::kEstablished)) {
    return make_error("session.restore.bad_state");
  }
  if (hold.value() > UINT16_MAX) return make_error("session.restore.bad_hold");
  SessionCheckpoint checkpoint;
  checkpoint.state = static_cast<SessionState>(state.value());
  checkpoint.peer_router_id = peer_id.value();
  checkpoint.negotiated_hold = static_cast<std::uint16_t>(hold.value());
  return checkpoint;
}

Result<RouterStateV2> read_router_v2(ByteReader& reader,
                                     const std::function<bool(sim::NodeId)>& known_peer) {
  // First-byte dispatch: v2 streams announce themselves with kFormatV2; the
  // snapshot layer's delta envelope must be resolved upstream
  // (PreparedSnapshot::build) — reaching a decode with one is an error; any
  // other first byte is refused.
  auto head = reader.u8();
  if (!head) return make_error("router.restore.sessions");
  if (head.value() == snapshot::kCheckpointSameAsBaseline) {
    return make_error("router.restore.delta_unresolved");
  }
  if (head.value() != kFormatV2) return make_error("router.restore.unknown_format");
  RouterStateV2 out;
  AttrPoolDecoder pool;
  for (;;) {
    auto tag = reader.u8();
    if (!tag) return make_error("router.restore.truncated_tag");
    switch (static_cast<Tag>(tag.value())) {
      case Tag::kEnd:
        return out;
      case Tag::kAttrPool: {
        auto parsed = AttrPoolDecoder::parse(reader);
        if (!parsed) return parsed.error();
        pool = std::move(parsed).take();
        break;
      }
      case Tag::kSessions: {
        auto count = reader.vu32();
        if (!count) return make_error("router.restore.sessions");
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto peer = reader.vu32();
          if (!peer) return make_error("router.restore.peer");
          if (!known_peer(peer.value())) {
            return make_error("router.restore.unknown_peer");
          }
          auto checkpoint = read_session_v2(reader);
          if (!checkpoint) return checkpoint.error();
          out.sessions.emplace_back(peer.value(), checkpoint.value());
        }
        break;
      }
      case Tag::kAdjIn: {
        auto count = reader.vu32();
        if (!count) return make_error("router.restore.adj_in");
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto peer = reader.vu32();
          if (!peer) return make_error("router.restore.adj_in_peer");
          auto rib = read_rib_v2(reader, pool);
          if (!rib) {
            return make_error("router.restore.adj_in_rib", rib.error().to_string());
          }
          out.adj_in.emplace_back(peer.value(), std::move(rib).take());
        }
        break;
      }
      case Tag::kLocRib: {
        auto rib = read_rib_v2(reader, pool);
        if (!rib) {
          return make_error("router.restore.loc_rib", rib.error().to_string());
        }
        out.loc_rib = std::move(rib).take();
        break;
      }
      case Tag::kAdjOut: {
        auto count = reader.vu32();
        if (!count) return make_error("router.restore.adj_out");
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto peer = reader.vu32();
          if (!peer) return make_error("router.restore.adj_out_peer");
          auto rib = read_rib_v2(reader, pool);
          if (!rib) {
            return make_error("router.restore.adj_out_rib", rib.error().to_string());
          }
          out.adj_out.emplace_back(peer.value(), std::move(rib).take());
        }
        break;
      }
      case Tag::kFlips: {
        auto count = reader.vu32();
        if (!count) return make_error("router.restore.flips");
        for (std::uint32_t i = 0; i < count.value(); ++i) {
          auto addr = reader.u32();
          auto len = reader.u8();
          auto flips = reader.vu32();
          if (!addr || !len || !flips) {
            return make_error("router.restore.flip_entry");
          }
          out.best_flips.emplace_back(
              util::IpPrefix{util::IpAddress{addr.value()}, len.value()}, flips.value());
        }
        break;
      }
      default:
        return make_error("router.restore.unknown_tag", std::to_string(tag.value()));
    }
  }
}

}  // namespace dice::bgp::ckpt
