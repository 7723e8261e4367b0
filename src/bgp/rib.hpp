// Routing Information Bases (RFC 4271 §3.2): Adj-RIB-In (per peer, post
// import policy), Loc-RIB (selected best routes), Adj-RIB-Out (per peer,
// post export policy). All three are checkpointed through the v2 codec
// (bgp/checkpoint_codec.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/attr.hpp"
#include "util/bytes.hpp"
#include "util/ip.hpp"

namespace dice::bgp {

/// Identifies where a route came from for selection and propagation rules.
struct RouteSource {
  std::uint32_t peer_node = 0xffffffffU;  ///< sim node id; kLocalRoute for originated
  Asn peer_asn = 0;
  RouterId peer_router_id = 0;
  util::IpAddress peer_address;
  bool ebgp = true;

  bool operator==(const RouteSource&) const = default;
};

inline constexpr std::uint32_t kLocalRoute = 0xffffffffU;

struct Route {
  util::IpPrefix prefix;
  PathAttributes attrs;
  RouteSource source;

  [[nodiscard]] bool local() const noexcept { return source.peer_node == kLocalRoute; }
  [[nodiscard]] std::string to_string() const;

  bool operator==(const Route&) const = default;
};

/// One RIB table: prefix -> route, ordered for deterministic iteration.
///
/// Copy-on-write: the table lives behind a shared_ptr, so copying a Rib
/// shares it and costs O(1) whatever its size. The first upsert() or
/// erase() that actually changes a shared table copies it first
/// ("detaches", counted by dice_rib_detaches_total); clear() just drops the
/// reference. This is what makes restoring a router from a decoded
/// checkpoint (BgpRouter::apply, bgp2::FsmEngine::apply) O(tables) instead
/// of O(routes): every clone starts out sharing the decoded tables and pays
/// only for the few it writes.
///
/// Sharing rule (thread safety): a table reachable from more than one Rib
/// is never written. Tables shared across threads are the immutable ones a
/// PreparedSnapshot or a LiveStateCache entry holds; a writer detaches
/// whenever use_count() != 1. On the unshared path an acquire fence pairs
/// with the release in another thread's shared_ptr decrement, so reads that
/// thread made before dropping its reference happen before the in-place
/// write. Never hand out a mutable reference into the table and never add a
/// weak_ptr to it: both would break the use_count() test.
class Rib {
 public:
  using Table = std::map<util::IpPrefix, Route>;

  /// Returns true when the entry changed (insert or different route).
  bool upsert(Route route);
  /// Returns true when an entry was removed.
  bool erase(const util::IpPrefix& prefix);

  [[nodiscard]] const Route* find(const util::IpPrefix& prefix) const;
  [[nodiscard]] const Table& table() const noexcept { return table_ ? *table_ : empty_table(); }
  [[nodiscard]] std::size_t size() const noexcept { return table_ ? table_->size() : 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  void clear() noexcept { table_.reset(); }

  /// Content hash over all entries (order-independent by construction since
  /// iteration is ordered). Feeds checkpoint hashes and the privacy-
  /// preserving check interface.
  [[nodiscard]] std::uint64_t content_hash() const;

  /// Fixed-width canonical form; the input to content_hash (checkpoints
  /// use the byte-coded v2 format, bgp/checkpoint_codec.hpp).
  void serialize(util::ByteWriter& writer) const;

 private:
  [[nodiscard]] static const Table& empty_table() noexcept;
  /// The table, exclusively owned: allocated if absent, detached if shared.
  [[nodiscard]] Table& owned_table();

  std::shared_ptr<Table> table_;  ///< null reads as empty
};

/// Canonical route/attribute forms behind Rib::serialize.
void serialize_route(util::ByteWriter& writer, const Route& route);
void serialize_attrs(util::ByteWriter& writer, const PathAttributes& attrs);

}  // namespace dice::bgp
