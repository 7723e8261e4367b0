#include <gtest/gtest.h>

#include "bgp/config.hpp"

namespace dice::bgp {
namespace {

TEST(ConfigTest, NeighborLookups) {
  RouterConfig config;
  config.name = "r1";
  config.router_id = util::IpAddress{10, 0, 0, 1}.value();
  config.asn = 65001;
  config.address = util::IpAddress{10, 0, 0, 1};
  NeighborConfig transit;
  transit.address = util::IpAddress{10, 0, 0, 2};
  transit.asn = 65002;
  NeighborConfig peer;
  peer.address = util::IpAddress{10, 0, 0, 3};
  peer.asn = 65003;
  config.neighbors = {transit, peer};

  ASSERT_NE(config.neighbor_by_address(util::IpAddress{10, 0, 0, 3}), nullptr);
  EXPECT_EQ(config.neighbor_by_address(util::IpAddress{10, 0, 0, 3})->asn, 65003u);
  EXPECT_EQ(config.neighbor_by_address(util::IpAddress{9, 9, 9, 9}), nullptr);
  ASSERT_NE(config.neighbor_by_asn(65002), nullptr);
  EXPECT_EQ(config.neighbor_by_asn(65002)->address.value(),
            (util::IpAddress{10, 0, 0, 2}.value()));
  EXPECT_EQ(config.neighbor_by_asn(64000), nullptr);
}

}  // namespace
}  // namespace dice::bgp
