#include <gtest/gtest.h>

#include "dice/system.hpp"

namespace dice::bgp {
namespace {

using core::System;
using util::IpAddress;
using util::IpPrefix;

TEST(RouterTest, TwoRoutersConverge) {
  System system(make_line(2));
  system.start();
  ASSERT_TRUE(system.converge());

  // Both sessions established, both directions.
  EXPECT_EQ(system.established_sessions(), 2u);
  // Each router knows its own prefix plus the peer's.
  for (sim::NodeId id : {0u, 1u}) {
    const BgpRouter& router = system.bgp_router(id);
    EXPECT_EQ(router.loc_rib().size(), 2u) << "router " << id;
  }
  // r0's route to r1's prefix goes via r1 with AS path [as(r1)].
  const Route* learned = system.router(0).loc_rib().find(node_prefix(1));
  ASSERT_NE(learned, nullptr);
  EXPECT_EQ(learned->attrs.next_hop, node_address(1));
  EXPECT_EQ(learned->attrs.as_path.to_string(), std::to_string(node_asn(1)));
}

TEST(RouterTest, LineTopologyPropagatesTransitively) {
  System system(make_line(4));
  system.start();
  ASSERT_TRUE(system.converge());
  // r0 reaches r3's prefix through 3 hops.
  const Route* route = system.router(0).loc_rib().find(node_prefix(3));
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->attrs.as_path.selection_length(), 3u);
  EXPECT_EQ(route->attrs.as_path.origin_asn(), node_asn(3));
  // Every router has all 4 prefixes.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(system.router(static_cast<sim::NodeId>(i)).loc_rib().size(), 4u);
  }
}

TEST(RouterTest, MeshPrefersShortestPath) {
  System system(make_full_mesh(4));
  system.start();
  ASSERT_TRUE(system.converge());
  // Direct one-hop routes beat two-hop alternatives everywhere.
  for (sim::NodeId a = 0; a < 4; ++a) {
    for (sim::NodeId b = 0; b < 4; ++b) {
      if (a == b) continue;
      const Route* route = system.router(a).loc_rib().find(node_prefix(b));
      ASSERT_NE(route, nullptr);
      EXPECT_EQ(route->attrs.as_path.selection_length(), 1u)
          << "router " << a << " -> prefix of " << b;
    }
  }
}

TEST(RouterTest, WithdrawOnSessionLossAndReconvergence) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  ASSERT_EQ(system.router(0).loc_rib().size(), 3u);

  // Kill the r1-r2 session administratively from r1; r1/r0 lose r2's prefix.
  system.router(1).set_auto_restart(false);
  system.router(2).set_auto_restart(false);
  system.router(1).reset_session(2);
  ASSERT_TRUE(system.converge());
  EXPECT_EQ(system.router(1).loc_rib().find(node_prefix(2)), nullptr);
  EXPECT_EQ(system.router(0).loc_rib().find(node_prefix(2)), nullptr);
  EXPECT_EQ(system.router(0).loc_rib().size(), 2u);

  // Re-enable restarts; session comes back and routes reappear.
  system.router(1).set_auto_restart(true);
  system.router(2).set_auto_restart(true);
  system.bgp_router(1).session(2)->start();
  ASSERT_TRUE(system.converge());
  EXPECT_NE(system.router(0).loc_rib().find(node_prefix(2)), nullptr);
  EXPECT_EQ(system.router(0).loc_rib().size(), 3u);
}

TEST(RouterTest, AsPathLoopRejected) {
  // Ring of 3: routes must never loop (AS path check drops them); every
  // router still reaches everything via the shorter arc.
  System system(make_ring(3));
  system.start();
  ASSERT_TRUE(system.converge());
  for (sim::NodeId id = 0; id < 3; ++id) {
    const BgpRouter& router = system.bgp_router(id);
    EXPECT_EQ(router.loc_rib().size(), 3u);
    for (const auto& [prefix, route] : router.loc_rib().table()) {
      EXPECT_FALSE(route.attrs.as_path.contains(router.config().asn))
          << router.config().name << " " << route.to_string();
    }
  }
}

TEST(RouterTest, ImportPolicyRejectionCreatesNoRoute) {
  SystemBlueprint bp = make_line(2);
  // r0 rejects everything from r1.
  bp.configs[0].neighbors[0].import_policy = Policy::reject_all();
  System system(std::move(bp));
  system.start();
  ASSERT_TRUE(system.converge());
  EXPECT_EQ(system.router(0).loc_rib().size(), 1u);  // own prefix only
  EXPECT_GT(system.router(0).stats().import_rejects, 0u);
  // r1 still learns r0's prefix (policies are directional).
  EXPECT_EQ(system.router(1).loc_rib().size(), 2u);
}

TEST(RouterTest, ExportPolicyFiltersAdvertisement) {
  SystemBlueprint bp = make_line(3);
  // r1 refuses to export r0's prefix toward r2.
  PolicyRule rule;
  rule.matches.push_back(
      Match{Match::Kind::kPrefixExact, node_prefix(0), 0, 0, {}});
  rule.verdict = Verdict::kReject;
  Policy export_policy;
  export_policy.rules.push_back(rule);
  export_policy.default_accept = true;
  // r1's second neighbor entry is r2 (added by the r1-r2 link).
  bp.configs[1].neighbors[1].export_policy = export_policy;

  System system(std::move(bp));
  system.start();
  ASSERT_TRUE(system.converge());
  EXPECT_EQ(system.router(2).loc_rib().find(node_prefix(0)), nullptr);
  EXPECT_NE(system.router(2).loc_rib().find(node_prefix(1)), nullptr);
}

TEST(RouterTest, NoExportCommunityHonored) {
  SystemBlueprint bp = make_line(3);
  // r0 tags its own announcements toward r1 with NO_EXPORT.
  PolicyRule tag;
  tag.actions.push_back(Action{Action::Kind::kAddCommunity, well_known::kNoExport});
  tag.verdict = Verdict::kAccept;
  bp.configs[1].neighbors[0].import_policy.rules.insert(
      bp.configs[1].neighbors[0].import_policy.rules.begin(), tag);

  System system(std::move(bp));
  system.start();
  ASSERT_TRUE(system.converge());
  // r1 has the route but must not pass it to eBGP peer r2.
  EXPECT_NE(system.router(1).loc_rib().find(node_prefix(0)), nullptr);
  EXPECT_EQ(system.router(2).loc_rib().find(node_prefix(0)), nullptr);
}

TEST(RouterTest, HandlerCrashResetsSessionsAndCounts) {
  SystemBlueprint bp = make_line(2);
  inject_bug(bp, 0, bugs::kMedOverflow);
  System system(std::move(bp));
  system.start();
  ASSERT_TRUE(system.converge());

  // Craft an UPDATE with MED=0xffffffff and deliver it to r0 from r1.
  UpdateMessage update;
  update.attrs.origin = Origin::kIgp;
  update.attrs.as_path = AsPath{{node_asn(1)}};
  update.attrs.next_hop = node_address(1);
  update.attrs.med = 0xffffffffU;
  update.nlri.push_back(IpPrefix{IpAddress{10, 200, 0, 0}, 16});
  auto encoded = encode(Message{update});
  ASSERT_TRUE(encoded.ok());

  system.router(0).set_auto_restart(false);
  system.router(1).set_auto_restart(false);
  system.inject_message(1, 0, encoded.value());
  system.converge();
  EXPECT_EQ(system.router(0).stats().handler_crashes, 1u);
  // The daemon crash reset r0's sessions.
  EXPECT_EQ(system.bgp_router(0).session(1)->state(), SessionState::kIdle);
}

TEST(RouterTest, MalformedUpdateTriggersNotificationAndReset) {
  System system(make_line(2));
  system.start();
  ASSERT_TRUE(system.converge());
  system.router(0).set_auto_restart(false);
  system.router(1).set_auto_restart(false);

  // Tampered marker: header error -> NOTIFICATION -> session reset.
  auto encoded = encode(Message{KeepaliveMessage{}});
  util::Bytes bad = encoded.value();
  bad[0] = 0x00;
  system.inject_message(1, 0, std::move(bad));
  system.converge();
  EXPECT_GT(system.router(0).stats().decode_failures, 0u);
  EXPECT_EQ(system.bgp_router(0).session(1)->state(), SessionState::kIdle);
  // r1 received the NOTIFICATION and also dropped to Idle.
  EXPECT_EQ(system.bgp_router(1).session(0)->state(), SessionState::kIdle);
}

TEST(RouterTest, HoldTimerExpiryResetsSession) {
  SystemBlueprint bp = make_line(2);
  bp.configs[0].hold_time = 9;  // r0 expects traffic every 9s
  bp.configs[1].hold_time = 9;
  System system(std::move(bp));
  system.start();
  ASSERT_TRUE(system.converge());
  ASSERT_TRUE(system.bgp_router(0).session(1)->established());

  // Cut the wire silently: no NOTIFICATION, keepalives stop flowing.
  system.router(0).set_auto_restart(false);
  system.router(1).set_auto_restart(false);
  system.network().set_link_up(0, 1, false);
  // Advance past the hold time; background timers fire.
  system.simulator().run_until(system.simulator().now() + 30 * sim::kSecond);
  EXPECT_EQ(system.bgp_router(0).session(1)->state(), SessionState::kIdle);
  EXPECT_EQ(system.bgp_router(1).session(0)->state(), SessionState::kIdle);
}

TEST(RouterTest, CheckpointRestoreRoundTripsState) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  BgpRouter& original = system.bgp_router(1);

  util::ByteWriter writer;
  original.checkpoint(writer);
  const std::uint64_t original_hash = original.state_hash();

  // Build a fresh system (same blueprint) and restore into its router 1.
  System other(system.blueprint());
  util::ByteReader reader(writer.bytes());
  auto decoded = other.router(1).parse(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ASSERT_TRUE(other.router(1).apply(*decoded.value()).ok());
  EXPECT_EQ(other.router(1).state_hash(), original_hash);
  EXPECT_EQ(other.router(1).loc_rib().table().size(),
            original.loc_rib().table().size());
  EXPECT_TRUE(other.bgp_router(1).session(0)->established());
}

TEST(RouterTest, StatsTrackActivity) {
  System system(make_line(3));
  system.start();
  ASSERT_TRUE(system.converge());
  const auto& stats = system.router(1).stats();
  EXPECT_GT(stats.updates_received, 0u);
  EXPECT_GT(stats.updates_sent, 0u);
  EXPECT_GT(stats.decision_runs, 0u);
  EXPECT_GT(stats.best_changes, 0u);
  EXPECT_EQ(stats.handler_crashes, 0u);
}

}  // namespace
}  // namespace dice::bgp
