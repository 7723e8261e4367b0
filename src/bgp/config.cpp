#include "bgp/config.hpp"

namespace dice::bgp {

const NeighborConfig* RouterConfig::neighbor_by_address(util::IpAddress addr) const {
  for (const NeighborConfig& n : neighbors) {
    if (n.address == addr) return &n;
  }
  return nullptr;
}

const NeighborConfig* RouterConfig::neighbor_by_asn(Asn neighbor_asn) const {
  for (const NeighborConfig& n : neighbors) {
    if (n.asn == neighbor_asn) return &n;
  }
  return nullptr;
}

}  // namespace dice::bgp
