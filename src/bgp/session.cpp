#include "bgp/session.hpp"

#include <algorithm>

#include "bgp/codec.hpp"
#include "util/log.hpp"

namespace dice::bgp {

namespace {
const util::Logger& logger() {
  static util::Logger instance("bgp.session");
  return instance;
}
}  // namespace

std::string_view to_string(SessionState state) noexcept {
  switch (state) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kOpenSent: return "OpenSent";
    case SessionState::kOpenConfirm: return "OpenConfirm";
    case SessionState::kEstablished: return "Established";
  }
  return "?";
}

Session::Session(SessionHost& host, sim::NodeId peer_node, const NeighborConfig& neighbor,
                 const RouterConfig& local)
    : host_(host), peer_node_(peer_node), neighbor_(neighbor), local_(local) {}

void Session::start() {
  if (state_ != SessionState::kIdle) return;
  OpenMessage open;
  if (local_.asn > 0xffff) {
    // RFC 6793: the 2-octet OPEN field cannot carry our ASN — send
    // AS_TRANS, and announce the real ASN via the AS4 capability when
    // this speaker supports it.
    open.my_asn = static_cast<std::uint16_t>(kAsTrans);
    if (local_.as4_capable) append_as4_capability(open.opt_params, local_.asn);
  } else {
    open.my_asn = static_cast<std::uint16_t>(local_.asn);
  }
  open.hold_time = local_.hold_time;
  open.router_id = local_.router_id;
  host_.session_send(peer_node_, Message{open}, /*background=*/false);
  ++stats_.opens_sent;
  state_ = SessionState::kOpenSent;
  // §8.2.2: a large hold timer (4 minutes) guards OpenSent.
  negotiated_hold_ = local_.hold_time;
  host_.session_state_dirty();
  arm_hold_timer();
}

void Session::stop(NotifCode code, std::uint8_t subcode, const std::string& reason) {
  if (state_ == SessionState::kIdle) return;
  NotificationMessage notif;
  notif.code = code;
  notif.subcode = subcode;
  host_.session_send(peer_node_, Message{notif}, /*background=*/false);
  go_idle(reason);
}

void Session::reset_transport(const std::string& reason) {
  if (state_ == SessionState::kIdle) return;
  go_idle(reason);
}

void Session::handle_message(const Message& msg) {
  struct Visitor {
    Session& s;
    void operator()(const OpenMessage& m) const { s.handle_open(m); }
    void operator()(const UpdateMessage& m) const { s.handle_update(m); }
    void operator()(const NotificationMessage& m) const { s.handle_notification(m); }
    void operator()(const KeepaliveMessage&) const { s.handle_keepalive(); }
  };
  std::visit(Visitor{*this}, msg);
}

void Session::handle_open(const OpenMessage& open) {
  if (state_ == SessionState::kIdle) {
    // Passive open: the peer initiated first (e.g. staggered restarts after
    // a reset). Send our own OPEN and continue as OpenSent — this resolves
    // the connection-collision case on our single logical transport.
    start();
  }
  if (state_ != SessionState::kOpenSent) {
    // §6.5: OPEN outside OpenSent is an FSM error.
    stop(NotifCode::kFsmError, 0, "OPEN in state " + std::string(to_string(state_)));
    return;
  }
  // RFC 6793: an AS4-capable local speaker trusts the peer's AS4
  // capability over the 2-octet field; a legacy speaker (as4_capable
  // false) ignores capabilities and accepts AS_TRANS from any neighbor
  // configured with a 4-byte ASN — that is the "negotiate down" path.
  Asn announced = open.my_asn;
  if (local_.as4_capable) {
    if (std::optional<Asn> as4 = find_as4_capability(open.opt_params)) announced = *as4;
  }
  const bool as_matches = announced == neighbor_.asn ||
                          (announced == kAsTrans && neighbor_.asn > 0xffff);
  if (!as_matches) {
    stop(NotifCode::kOpenMessageError, 2,
         "peer AS mismatch: expected " + std::to_string(neighbor_.asn) + " got " +
             std::to_string(announced));
    return;
  }
  peer_router_id_ = open.router_id;
  negotiated_hold_ = std::min<std::uint16_t>(local_.hold_time, open.hold_time);
  host_.session_send(peer_node_, Message{KeepaliveMessage{}}, /*background=*/false);
  state_ = SessionState::kOpenConfirm;
  host_.session_state_dirty();
  arm_hold_timer();
}

void Session::handle_keepalive() {
  ++stats_.keepalives_received;
  switch (state_) {
    case SessionState::kOpenConfirm:
      go_established();
      break;
    case SessionState::kEstablished:
      arm_hold_timer();
      break;
    case SessionState::kOpenSent:
    case SessionState::kIdle:
      // Stray keepalive from a stale connection; harmless, ignore in Idle,
      // FSM error in OpenSent.
      if (state_ == SessionState::kOpenSent) {
        stop(NotifCode::kFsmError, 0, "KEEPALIVE in OpenSent");
      }
      break;
  }
}

void Session::handle_update(const UpdateMessage& update) {
  if (state_ != SessionState::kEstablished) {
    if (state_ != SessionState::kIdle) {
      stop(NotifCode::kFsmError, 0, "UPDATE in state " + std::string(to_string(state_)));
    }
    return;
  }
  ++stats_.updates_received;
  arm_hold_timer();
  host_.session_update(peer_node_, update);
}

void Session::handle_notification(const NotificationMessage& notif) {
  ++stats_.notifications_received;
  go_idle("received " + notif.to_string());
}

void Session::go_established() {
  state_ = SessionState::kEstablished;
  host_.session_state_dirty();
  arm_hold_timer();
  arm_keepalive_timer();
  logger().debug() << local_.name << " session to AS" << neighbor_.asn << " established";
  host_.session_established(peer_node_);
}

void Session::go_idle(const std::string& reason) {
  const bool was_active = state_ != SessionState::kIdle;
  state_ = SessionState::kIdle;
  peer_router_id_ = 0;
  negotiated_hold_ = 0;
  if (was_active) host_.session_state_dirty();
  cancel_timers();
  ++stats_.resets;
  if (was_active) {
    logger().debug() << local_.name << " session to AS" << neighbor_.asn
                     << " down: " << reason;
    host_.session_down(peer_node_, reason);
  }
}

void Session::arm_hold_timer() {
  hold_timer_.cancel();
  if (negotiated_hold_ == 0) return;  // hold time 0 disables the timer (§4.2)
  hold_timer_ = host_.session_simulator().schedule_after(
      static_cast<sim::Time>(negotiated_hold_) * sim::kSecond,
      [this] {
        NotificationMessage notif;
        notif.code = NotifCode::kHoldTimerExpired;
        host_.session_send(peer_node_, Message{notif}, /*background=*/false);
        go_idle("hold timer expired");
      },
      /*background=*/true);
}

void Session::arm_keepalive_timer() {
  keepalive_timer_.cancel();
  if (negotiated_hold_ == 0) return;
  const sim::Time interval =
      std::max<sim::Time>(1, static_cast<sim::Time>(negotiated_hold_) / 3) * sim::kSecond;
  keepalive_timer_ = host_.session_simulator().schedule_after(
      interval,
      [this] {
        if (state_ == SessionState::kEstablished) {
          Message ka{KeepaliveMessage{}};
          host_.session_send(peer_node_, ka, /*background=*/true);
          arm_keepalive_timer();
        }
      },
      /*background=*/true);
}

void Session::cancel_timers() {
  hold_timer_.cancel();
  keepalive_timer_.cancel();
}

void Session::apply_checkpoint(const SessionCheckpoint& checkpoint) {
  cancel_timers();
  host_.session_state_dirty();
  state_ = checkpoint.state;
  peer_router_id_ = checkpoint.peer_router_id;
  negotiated_hold_ = checkpoint.negotiated_hold;
  // Re-arm timers implied by the restored state; elapsed fractions are not
  // preserved (documented approximation — fresh timers on the clone).
  if (state_ == SessionState::kEstablished) {
    arm_hold_timer();
    arm_keepalive_timer();
  } else if (state_ != SessionState::kIdle) {
    arm_hold_timer();
  }
}

void Session::reset_for_reuse() {
  cancel_timers();
  host_.session_state_dirty();
  state_ = SessionState::kIdle;
  peer_router_id_ = 0;
  negotiated_hold_ = 0;
  stats_ = {};
}

}  // namespace dice::bgp
