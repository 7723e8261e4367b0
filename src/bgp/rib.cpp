#include "bgp/rib.hpp"

#include <atomic>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"
#include "util/result.hpp"

namespace dice::bgp {

using util::ByteReader;
using util::ByteWriter;
using util::make_error;
using util::Result;

std::string Route::to_string() const {
  std::string out = prefix.to_string();
  out.append(" via ").append(local() ? "local" : attrs.next_hop.to_string());
  out.append(" [").append(attrs.to_string()).append("]");
  return out;
}

const Rib::Table& Rib::empty_table() noexcept {
  static const Table empty;
  return empty;
}

Rib::Table& Rib::owned_table() {
  if (!table_) {
    table_ = std::make_shared<Table>();
  } else if (table_.use_count() != 1) {
    static obs::Counter& detach_counter =
        obs::MetricsRegistry::global().counter(obs::names::kRibDetaches);
    detach_counter.add();
    table_ = std::make_shared<Table>(*table_);
  } else {
    // Sole owner: pair with the release of whichever thread dropped the
    // last other reference, so its reads finish before this write.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return *table_;
}

bool Rib::upsert(Route route) {
  // A no-op upsert must not detach a shared table.
  if (table_ && table_.use_count() != 1) {
    const Route* current = find(route.prefix);
    if (current != nullptr && *current == route) return false;
  }
  // try_emplace only constructs the mapped value when it inserts, so the
  // move below never fires on the replace path (where `route` is still
  // needed for the comparison). Pair members initialize first-then-second:
  // the key is copied out of `route` before the move runs.
  auto [it, inserted] = owned_table().try_emplace(route.prefix, std::move(route));
  if (inserted) return true;
  if (it->second == route) return false;
  it->second = std::move(route);
  return true;
}

bool Rib::erase(const util::IpPrefix& prefix) {
  if (find(prefix) == nullptr) return false;  // absent: never detach
  return owned_table().erase(prefix) > 0;
}

const Route* Rib::find(const util::IpPrefix& prefix) const {
  if (!table_) return nullptr;
  auto it = table_->find(prefix);
  return it == table_->end() ? nullptr : &it->second;
}

std::uint64_t Rib::content_hash() const {
  ByteWriter w;
  serialize(w);
  return util::fnv1a(w.span());
}

void serialize_attrs(ByteWriter& w, const PathAttributes& attrs) {
  w.u8(static_cast<std::uint8_t>(attrs.origin));
  w.u16(static_cast<std::uint16_t>(attrs.as_path.segments().size()));
  for (const AsSegment& seg : attrs.as_path.segments()) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.u16(static_cast<std::uint16_t>(seg.asns.size()));
    for (Asn asn : seg.asns) w.u32(asn);
  }
  w.u32(attrs.next_hop.value());
  w.u8(attrs.med.has_value() ? 1 : 0);
  if (attrs.med) w.u32(*attrs.med);
  w.u8(attrs.local_pref.has_value() ? 1 : 0);
  if (attrs.local_pref) w.u32(*attrs.local_pref);
  w.u8(attrs.atomic_aggregate ? 1 : 0);
  w.u8(attrs.aggregator.has_value() ? 1 : 0);
  if (attrs.aggregator) {
    w.u32(attrs.aggregator->asn);
    w.u32(attrs.aggregator->address.value());
  }
  w.u16(static_cast<std::uint16_t>(attrs.communities.size()));
  for (Community c : attrs.communities) w.u32(c);
  w.u16(static_cast<std::uint16_t>(attrs.unknown.size()));
  for (const UnknownAttr& ua : attrs.unknown) {
    w.u8(ua.flags);
    w.u8(ua.type);
    w.u16(static_cast<std::uint16_t>(ua.value.size()));
    w.raw(ua.value);
  }
}

Result<PathAttributes> deserialize_attrs(ByteReader& r) {
  PathAttributes attrs;
  auto origin = r.u8();
  if (!origin || origin.value() > 2) return make_error("rib.attrs.origin");
  attrs.origin = static_cast<Origin>(origin.value());
  auto seg_count = r.u16();
  if (!seg_count) return seg_count.error();
  for (std::uint16_t i = 0; i < seg_count.value(); ++i) {
    auto type = r.u8();
    auto count = r.u16();
    if (!type || !count) return make_error("rib.attrs.as_path");
    AsSegment seg;
    seg.type = static_cast<AsSegmentType>(type.value());
    for (std::uint16_t j = 0; j < count.value(); ++j) {
      auto asn = r.u32();
      if (!asn) return asn.error();
      seg.asns.push_back(asn.value());
    }
    attrs.as_path.segments().push_back(std::move(seg));
  }
  auto next_hop = r.u32();
  if (!next_hop) return next_hop.error();
  attrs.next_hop = util::IpAddress{next_hop.value()};
  auto has_med = r.u8();
  if (!has_med) return has_med.error();
  if (has_med.value() != 0) {
    auto med = r.u32();
    if (!med) return med.error();
    attrs.med = med.value();
  }
  auto has_lp = r.u8();
  if (!has_lp) return has_lp.error();
  if (has_lp.value() != 0) {
    auto lp = r.u32();
    if (!lp) return lp.error();
    attrs.local_pref = lp.value();
  }
  auto atomic = r.u8();
  if (!atomic) return atomic.error();
  attrs.atomic_aggregate = atomic.value() != 0;
  auto has_agg = r.u8();
  if (!has_agg) return has_agg.error();
  if (has_agg.value() != 0) {
    auto asn = r.u32();
    auto addr = r.u32();
    if (!asn || !addr) return make_error("rib.attrs.aggregator");
    attrs.aggregator = Aggregator{asn.value(), util::IpAddress{addr.value()}};
  }
  auto comm_count = r.u16();
  if (!comm_count) return comm_count.error();
  for (std::uint16_t i = 0; i < comm_count.value(); ++i) {
    auto c = r.u32();
    if (!c) return c.error();
    attrs.add_community(c.value());
  }
  auto unknown_count = r.u16();
  if (!unknown_count) return unknown_count.error();
  for (std::uint16_t i = 0; i < unknown_count.value(); ++i) {
    UnknownAttr ua;
    auto flags = r.u8();
    auto type = r.u8();
    auto len = r.u16();
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

void serialize_route(ByteWriter& w, const Route& route) {
  w.u32(route.prefix.address().value());
  w.u8(route.prefix.length());
  serialize_attrs(w, route.attrs);
  w.u32(route.source.peer_node);
  w.u32(route.source.peer_asn);
  w.u32(route.source.peer_router_id);
  w.u32(route.source.peer_address.value());
  w.u8(route.source.ebgp ? 1 : 0);
}

Result<Route> deserialize_route(ByteReader& r) {
  Route route;
  auto addr = r.u32();
  auto len = r.u8();
  if (!addr || !len) return make_error("rib.route.prefix");
  route.prefix = util::IpPrefix{util::IpAddress{addr.value()}, len.value()};
  auto attrs = deserialize_attrs(r);
  if (!attrs) return attrs.error();
  route.attrs = std::move(attrs).take();
  auto peer_node = r.u32();
  auto peer_asn = r.u32();
  auto peer_id = r.u32();
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

void Rib::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(size()));
  for (const auto& [prefix, route] : table()) serialize_route(w, route);
}

Result<Rib> Rib::deserialize(ByteReader& r) {
  Rib rib;
  auto count = r.u32();
  if (!count) return count.error();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto route = deserialize_route(r);
    if (!route) return route.error();
    rib.owned_table().emplace(route.value().prefix, std::move(route).take());
  }
  return rib;
}

}  // namespace dice::bgp
