#include "bgp/rib.hpp"

#include <atomic>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"

namespace dice::bgp {

using util::ByteWriter;

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

void Rib::serialize(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(size()));
  for (const auto& [prefix, route] : table()) serialize_route(w, route);
}

}  // namespace dice::bgp
