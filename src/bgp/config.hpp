// Router configuration: the model consumed by BgpRouter. Operator
// mistakes — the paper's third fault class — enter the system here (e.g.
// an extra `network` statement originating someone else's prefix, or a
// botched filter). Configs are built in code: the topology builders
// (bgp/topology.hpp) assemble every RouterConfig a blueprint carries, and
// fault injectors such as inject_hijack edit them in place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "util/ip.hpp"

namespace dice::bgp {

struct NeighborConfig {
  util::IpAddress address;
  Asn asn = 0;
  std::string description;
  Policy import_policy = Policy::accept_all();
  Policy export_policy = Policy::accept_all();

  bool operator==(const NeighborConfig&) const = default;
};

struct RouterConfig {
  std::string name;
  RouterId router_id = 0;
  Asn asn = 0;
  util::IpAddress address;
  std::uint16_t hold_time = 90;  ///< seconds; 0 disables keepalive/hold timers
  std::vector<util::IpPrefix> networks;  ///< locally originated prefixes
  std::vector<NeighborConfig> neighbors;
  bool always_compare_med = false;
  std::uint32_t bug_mask = 0;  ///< injected programming errors (bugs.hpp)
  /// RFC 6793 4-octet AS support. True (default): the speaker announces its
  /// real ASN via the OPEN AS4 capability when it exceeds 16 bits and
  /// understands the capability from peers. False models a legacy 2-octet
  /// speaker: capabilities are ignored and a 4-byte neighbor is accepted
  /// through its AS_TRANS placeholder.
  bool as4_capable = true;

  [[nodiscard]] const NeighborConfig* neighbor_by_address(util::IpAddress addr) const;
  [[nodiscard]] const NeighborConfig* neighbor_by_asn(Asn asn) const;

  bool operator==(const RouterConfig&) const = default;
};

}  // namespace dice::bgp
