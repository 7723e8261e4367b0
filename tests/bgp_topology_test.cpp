#include <gtest/gtest.h>

#include "dice/system.hpp"

namespace dice::bgp {
namespace {

using core::System;

/// The structural sanity a deployable config needs: nonzero ASN and router
/// id, nonzero and distinct-address neighbors, host bits of every
/// originated prefix zeroed.
void expect_structurally_valid(const RouterConfig& config) {
  EXPECT_NE(config.asn, 0u) << config.name;
  EXPECT_NE(config.router_id, 0u) << config.name;
  for (std::size_t i = 0; i < config.neighbors.size(); ++i) {
    const NeighborConfig& n = config.neighbors[i];
    EXPECT_NE(n.asn, 0u) << config.name << " -> " << n.address.to_string();
    for (std::size_t j = i + 1; j < config.neighbors.size(); ++j) {
      EXPECT_NE(config.neighbors[j].address, n.address)
          << config.name << " lists neighbor " << n.address.to_string() << " twice";
    }
  }
  for (const util::IpPrefix& p : config.networks) {
    EXPECT_EQ(util::IpPrefix(p.address(), p.length()), p)
        << config.name << " originates " << p.to_string() << " with host bits set";
  }
}

TEST(TopologyTest, BuildersProduceValidConfigs) {
  for (const SystemBlueprint& bp :
       {make_line(3), make_ring(5), make_full_mesh(4), make_star(4),
        make_internet({2, 3, 4}), make_bad_gadget()}) {
    for (const RouterConfig& config : bp.configs) expect_structurally_valid(config);
    // Every link endpoint exists and every neighbor has an address-book hit.
    const auto book = bp.address_book();
    for (const LinkSpec& link : bp.links) {
      EXPECT_LT(link.a, bp.size());
      EXPECT_LT(link.b, bp.size());
    }
    for (const RouterConfig& config : bp.configs) {
      for (const NeighborConfig& neighbor : config.neighbors) {
        EXPECT_TRUE(book.contains(neighbor.address))
            << config.name << " -> " << neighbor.address.to_string();
      }
    }
  }
}

TEST(TopologyTest, InternetDefaultsMatchPaperFigure1) {
  const SystemBlueprint bp = make_internet();
  EXPECT_EQ(bp.size(), 27u);  // 3 tier-1 + 8 tier-2 + 16 stubs
}

TEST(TopologyTest, Internet27Converges) {
  System system(make_internet());
  system.start();
  ASSERT_TRUE(system.converge());
  // Valley-free reachability: every router reaches every originated prefix
  // (each of the 27 routers originates exactly one).
  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_EQ(system.router(static_cast<sim::NodeId>(i)).loc_rib().size(), 27u)
        << "router " << i;
  }
}

TEST(TopologyTest, GaoRexfordPrefersCustomerRoutes) {
  // Tier-2 router t2(0) = node 3 in {3,8,16}: it has tier-1 providers and
  // stub customers. Its route to a customer prefix must carry the customer
  // tag and local-pref 200.
  const InternetTopologyParams params{3, 8, 16};
  System system(make_internet(params));
  system.start();
  ASSERT_TRUE(system.converge());

  const sim::NodeId t2_first = 3;
  const sim::NodeId stub_first = 3 + 8;  // stub(0), customer of t2(0) and t2(1)
  const Route* route = system.router(t2_first).loc_rib().find(node_prefix(stub_first));
  ASSERT_NE(route, nullptr);
  EXPECT_TRUE(route->attrs.has_community(gao_rexford::kCustomerRoute));
  EXPECT_EQ(route->attrs.effective_local_pref(), 200u);
  // Direct customer path: one hop.
  EXPECT_EQ(route->attrs.as_path.selection_length(), 1u);
}

TEST(TopologyTest, ValleyFreeExportHoldsEverywhere) {
  // No router may have learned a peer/provider-tagged route from a
  // neighbor that exported it as peer/provider (valley-free violation):
  // equivalently, every route tagged peer/provider in an Adj-RIB-In must
  // have been a customer route at the exporter. Since exporters reject
  // peer/provider-tagged routes toward peers/providers, any route a router
  // has via a *provider or peer* neighbor arrived legitimately. We verify
  // the observable invariant: a route learned from a customer neighbor
  // never carries the provider tag stamped by a prior provider import at
  // the customer (which would mean the customer exported a provider route
  // upstream).
  System system(make_internet({2, 4, 6}));
  system.start();
  ASSERT_TRUE(system.converge());
  for (std::size_t i = 0; i < system.size(); ++i) {
    const BgpRouter& router = system.bgp_router(static_cast<sim::NodeId>(i));
    for (const NeighborConfig& neighbor : router.config().neighbors) {
      if (neighbor.description != "customer") continue;
      const auto book = system.blueprint().address_book();
      const Rib* rib_in = router.adj_rib_in(book.at(neighbor.address));
      if (rib_in == nullptr) continue;
      for (const auto& [prefix, route] : rib_in->table()) {
        // Import already re-tagged to kCustomerRoute; the violation would
        // be visible as path length > 1 via a non-originating customer
        // whose own best was provider/peer learned. The AS path would then
        // contain a tier-1 ASN "below" the customer — check the path only
        // contains the customer subtree: origin must be reachable via
        // customer edges, i.e. the first ASN is the customer itself.
        EXPECT_EQ(route.attrs.as_path.first_asn(), neighbor.asn)
            << router.config().name << " learned via customer "
            << neighbor.description;
      }
    }
  }
}

TEST(TopologyTest, BadGadgetNeverQuiesces) {
  System system(make_bad_gadget());
  system.start();
  // The dispute wheel has no stable assignment: the run must hit the event
  // budget without quiescing.
  EXPECT_FALSE(system.converge(/*max_events=*/30'000));
  // And best routes keep flipping at the wheel nodes.
  std::uint32_t max_flips = 0;
  for (sim::NodeId id = 1; id <= 3; ++id) {
    for (const auto& [prefix, flips] : system.router(id).best_flips()) {
      max_flips = std::max(max_flips, flips);
    }
  }
  EXPECT_GT(max_flips, 8u);
}

TEST(TopologyTest, HijackInjectionCreatesMoasConflict) {
  SystemBlueprint bp = make_internet({2, 3, 4});
  const sim::NodeId victim = 5;    // a stub
  const sim::NodeId attacker = 8;  // another stub
  inject_hijack(bp, victim, attacker);
  EXPECT_TRUE(std::find(bp.configs[attacker].networks.begin(),
                        bp.configs[attacker].networks.end(),
                        node_prefix(victim)) != bp.configs[attacker].networks.end());

  System system(std::move(bp));
  system.start();
  ASSERT_TRUE(system.converge());
  // Some routers now route the victim's prefix toward the attacker.
  std::size_t poisoned = 0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    const Route* route = system.router(static_cast<sim::NodeId>(i))
                             .loc_rib()
                             .find(node_prefix(victim));
    if (route == nullptr) continue;
    const Asn origin = route->local()
                           ? system.router(static_cast<sim::NodeId>(i)).config().asn
                           : route->attrs.as_path.origin_asn().value_or(0);
    if (origin == node_asn(attacker)) ++poisoned;
  }
  EXPECT_GT(poisoned, 0u);
}

TEST(TopologyTest, StarHubSeesAllLeaves) {
  System system(make_star(5));
  system.start();
  ASSERT_TRUE(system.converge());
  EXPECT_EQ(system.router(0).loc_rib().size(), 6u);
  // Leaves reach each other through the hub (2-hop paths).
  const Route* route = system.router(1).loc_rib().find(node_prefix(2));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->attrs.as_path.selection_length(), 2u);
}

}  // namespace
}  // namespace dice::bgp
