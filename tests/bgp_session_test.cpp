// Session FSM unit tests against a mock host (no network, no router).
#include <gtest/gtest.h>

#include "bgp/checkpoint_codec.hpp"
#include "bgp/session.hpp"

namespace dice::bgp {
namespace {

class MockHost : public SessionHost {
 public:
  void session_send(sim::NodeId peer, const Message& msg, bool background) override {
    sent.emplace_back(peer, msg);
    (void)background;
  }
  void session_established(sim::NodeId peer) override { established_peers.push_back(peer); }
  void session_down(sim::NodeId peer, const std::string& reason) override {
    down_events.emplace_back(peer, reason);
  }
  void session_update(sim::NodeId peer, const UpdateMessage& update) override {
    updates.emplace_back(peer, update);
  }
  sim::Simulator& session_simulator() override { return sim; }

  [[nodiscard]] MessageType last_sent_type() const { return type_of(sent.back().second); }

  sim::Simulator sim;
  std::vector<std::pair<sim::NodeId, Message>> sent;
  std::vector<sim::NodeId> established_peers;
  std::vector<std::pair<sim::NodeId, std::string>> down_events;
  std::vector<std::pair<sim::NodeId, UpdateMessage>> updates;
};

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() {
    local_.name = "local";
    local_.router_id = 1;
    local_.asn = 65001;
    local_.hold_time = 90;
    neighbor_.address = util::IpAddress{10, 0, 0, 2};
    neighbor_.asn = 65002;
    session_ = std::make_unique<Session>(host_, /*peer_node=*/2, neighbor_, local_);
  }

  [[nodiscard]] OpenMessage peer_open(std::uint16_t asn = 65002,
                                      std::uint16_t hold = 90) const {
    OpenMessage open;
    open.my_asn = asn;
    open.hold_time = hold;
    open.router_id = 22;
    return open;
  }

  void establish() {
    session_->start();
    session_->handle_message(Message{peer_open()});
    session_->handle_message(Message{KeepaliveMessage{}});
    ASSERT_TRUE(session_->established());
  }

  MockHost host_;
  RouterConfig local_;
  NeighborConfig neighbor_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, HappyPathHandshake) {
  EXPECT_EQ(session_->state(), SessionState::kIdle);
  session_->start();
  EXPECT_EQ(session_->state(), SessionState::kOpenSent);
  ASSERT_EQ(host_.sent.size(), 1u);
  EXPECT_EQ(host_.last_sent_type(), MessageType::kOpen);

  session_->handle_message(Message{peer_open()});
  EXPECT_EQ(session_->state(), SessionState::kOpenConfirm);
  EXPECT_EQ(host_.last_sent_type(), MessageType::kKeepalive);
  EXPECT_EQ(session_->peer_router_id(), 22u);

  session_->handle_message(Message{KeepaliveMessage{}});
  EXPECT_EQ(session_->state(), SessionState::kEstablished);
  EXPECT_EQ(host_.established_peers, std::vector<sim::NodeId>{2});
}

TEST_F(SessionTest, HoldTimeNegotiatedToMinimum) {
  session_->start();
  session_->handle_message(Message{peer_open(65002, /*hold=*/30)});
  EXPECT_EQ(session_->negotiated_hold(), 30u);
}

TEST_F(SessionTest, WrongPeerAsnRejected) {
  session_->start();
  session_->handle_message(Message{peer_open(/*asn=*/65099)});
  EXPECT_EQ(session_->state(), SessionState::kIdle);
  // NOTIFICATION OpenMessageError/BadPeerAS was sent.
  const auto& notif = std::get<NotificationMessage>(host_.sent.back().second);
  EXPECT_EQ(notif.code, NotifCode::kOpenMessageError);
  EXPECT_EQ(notif.subcode, 2);
  ASSERT_EQ(host_.down_events.size(), 1u);
}

TEST_F(SessionTest, PassiveOpenFromIdle) {
  // Receiving OPEN in Idle triggers our own OPEN (collision resolution).
  session_->handle_message(Message{peer_open()});
  EXPECT_EQ(session_->state(), SessionState::kOpenConfirm);
  // We sent OPEN then KEEPALIVE.
  ASSERT_EQ(host_.sent.size(), 2u);
  EXPECT_EQ(type_of(host_.sent[0].second), MessageType::kOpen);
  EXPECT_EQ(type_of(host_.sent[1].second), MessageType::kKeepalive);
}

TEST_F(SessionTest, UpdateBeforeEstablishedIsFsmError) {
  session_->start();
  session_->handle_message(Message{UpdateMessage{}});
  EXPECT_EQ(session_->state(), SessionState::kIdle);
  const auto& notif = std::get<NotificationMessage>(host_.sent.back().second);
  EXPECT_EQ(notif.code, NotifCode::kFsmError);
}

TEST_F(SessionTest, UpdateDeliveredWhenEstablished) {
  establish();
  UpdateMessage update;
  update.withdrawn.push_back(util::IpPrefix{util::IpAddress{10, 9, 0, 0}, 16});
  session_->handle_message(Message{update});
  ASSERT_EQ(host_.updates.size(), 1u);
  EXPECT_EQ(host_.updates[0].second, update);
  EXPECT_EQ(session_->stats().updates_received, 1u);
}

TEST_F(SessionTest, NotificationDropsSession) {
  establish();
  NotificationMessage notif;
  notif.code = NotifCode::kCease;
  session_->handle_message(Message{notif});
  EXPECT_EQ(session_->state(), SessionState::kIdle);
  EXPECT_EQ(session_->stats().notifications_received, 1u);
  ASSERT_EQ(host_.down_events.size(), 1u);
}

TEST_F(SessionTest, HoldTimerExpiresWithoutTraffic) {
  establish();
  // Advance past the negotiated hold time with no inbound messages.
  host_.sim.run_until(91 * sim::kSecond);
  EXPECT_EQ(session_->state(), SessionState::kIdle);
  // Hold-expiry NOTIFICATION went out.
  bool saw_hold_notif = false;
  for (const auto& [peer, msg] : host_.sent) {
    if (const auto* n = std::get_if<NotificationMessage>(&msg)) {
      saw_hold_notif |= n->code == NotifCode::kHoldTimerExpired;
    }
  }
  EXPECT_TRUE(saw_hold_notif);
}

TEST_F(SessionTest, KeepalivesRefreshHoldTimer) {
  establish();
  // Feed a keepalive every 60s; the session must stay up well past 90s.
  for (int i = 1; i <= 5; ++i) {
    host_.sim.run_until(static_cast<sim::Time>(i) * 60 * sim::kSecond);
    session_->handle_message(Message{KeepaliveMessage{}});
  }
  EXPECT_TRUE(session_->established());
}

TEST_F(SessionTest, KeepaliveTimerSendsKeepalives) {
  establish();
  const std::size_t before = host_.sent.size();
  host_.sim.run_until(35 * sim::kSecond);  // keepalive interval = 90/3 = 30s
  std::size_t keepalives = 0;
  for (std::size_t i = before; i < host_.sent.size(); ++i) {
    if (type_of(host_.sent[i].second) == MessageType::kKeepalive) ++keepalives;
  }
  EXPECT_GE(keepalives, 1u);
}

TEST_F(SessionTest, ZeroHoldTimeDisablesTimers) {
  local_.hold_time = 0;
  Session session(host_, 2, neighbor_, local_);
  session.start();
  session.handle_message(Message{peer_open(65002, /*hold=*/0)});
  session.handle_message(Message{KeepaliveMessage{}});
  ASSERT_TRUE(session.established());
  host_.sim.run_until(3600 * sim::kSecond);
  EXPECT_TRUE(session.established());  // no hold timer fired
}

TEST_F(SessionTest, TransportResetIsSilent) {
  establish();
  const std::size_t sent_before = host_.sent.size();
  session_->reset_transport("wire cut");
  EXPECT_EQ(session_->state(), SessionState::kIdle);
  EXPECT_EQ(host_.sent.size(), sent_before);  // no NOTIFICATION on the wire
  ASSERT_EQ(host_.down_events.size(), 1u);
  EXPECT_EQ(host_.down_events[0].second, "wire cut");
}

TEST_F(SessionTest, CheckpointApplyReestablishesTimers) {
  establish();
  util::ByteWriter writer;
  ckpt::write_session_v2(writer, *session_);

  Session restored(host_, 2, neighbor_, local_);
  util::ByteReader reader(writer.bytes());
  auto checkpoint = ckpt::read_session_v2(reader);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.error().to_string();
  restored.apply_checkpoint(checkpoint.value());
  EXPECT_TRUE(restored.established());
  EXPECT_EQ(restored.peer_router_id(), 22u);
  EXPECT_EQ(restored.negotiated_hold(), 90u);
  // The restored hold timer is armed: silence eventually drops the session.
  host_.sim.run_until(host_.sim.now() + 120 * sim::kSecond);
  EXPECT_FALSE(restored.established());
}

TEST_F(SessionTest, CheckpointDecodeRejectsGarbage) {
  const util::Bytes garbage{0x09};  // truncated + invalid state value
  util::ByteReader reader(garbage);
  EXPECT_FALSE(ckpt::read_session_v2(reader).ok());
}

TEST_F(SessionTest, EbgpDetection) {
  EXPECT_TRUE(session_->ebgp());
  NeighborConfig ibgp_neighbor = neighbor_;
  ibgp_neighbor.asn = local_.asn;
  Session ibgp(host_, 3, ibgp_neighbor, local_);
  EXPECT_FALSE(ibgp.ebgp());
}

}  // namespace
}  // namespace dice::bgp
