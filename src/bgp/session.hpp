// Per-neighbor BGP session FSM. The simulated transport is reliable and
// ordered (TCP semantics), so the Connect/Active dance collapses into an
// immediate OPEN exchange: Idle -> OpenSent -> OpenConfirm -> Established.
// Hold and keepalive timers follow RFC 4271 §8 (keepalive = hold/3); any
// protocol error sends the prescribed NOTIFICATION and resets to Idle.
#pragma once

#include <cstdint>
#include <string>

#include "bgp/config.hpp"
#include "bgp/message.hpp"
#include "sim/network.hpp"
#include "util/result.hpp"

namespace dice::bgp {

enum class SessionState : std::uint8_t { kIdle = 0, kOpenSent, kOpenConfirm, kEstablished };

[[nodiscard]] std::string_view to_string(SessionState state) noexcept;

/// Typed form of a Session checkpoint: FSM state + negotiated values.
/// Immutable once parsed; applying it to a Session is allocation-free.
struct SessionCheckpoint {
  SessionState state = SessionState::kIdle;
  RouterId peer_router_id = 0;
  std::uint16_t negotiated_hold = 0;
};

/// Callbacks a Session needs from its owning router.
class SessionHost {
 public:
  virtual ~SessionHost() = default;
  virtual void session_send(sim::NodeId peer, const Message& msg, bool background) = 0;
  virtual void session_established(sim::NodeId peer) = 0;
  /// Called on any transition out of Established or failed setup.
  virtual void session_down(sim::NodeId peer, const std::string& reason) = 0;
  virtual void session_update(sim::NodeId peer, const UpdateMessage& update) = 0;
  /// Called whenever the session's checkpointed state (FSM state, peer
  /// router id, negotiated hold) changes — the host's churn signal for
  /// delta snapshots. Keepalive traffic and stats do NOT fire it: a
  /// quiescent established session stays clean across keepalive rounds.
  /// Default no-op so non-router hosts (tests) need not care.
  virtual void session_state_dirty() {}
  [[nodiscard]] virtual sim::Simulator& session_simulator() = 0;
};

class Session {
 public:
  Session(SessionHost& host, sim::NodeId peer_node, const NeighborConfig& neighbor,
          const RouterConfig& local);

  /// Sends OPEN and moves to OpenSent.
  void start();

  /// Administrative or error stop: optionally notify the peer, drop to Idle.
  void stop(NotifCode code, std::uint8_t subcode, const std::string& reason);

  /// Dispatches a decoded message through the FSM.
  void handle_message(const Message& msg);

  /// Resets as if the transport failed (no NOTIFICATION sent) — the "local
  /// session reset" scenario from the paper's introduction.
  void reset_transport(const std::string& reason);

  [[nodiscard]] SessionState state() const noexcept { return state_; }
  [[nodiscard]] bool established() const noexcept {
    return state_ == SessionState::kEstablished;
  }
  [[nodiscard]] sim::NodeId peer_node() const noexcept { return peer_node_; }
  [[nodiscard]] const NeighborConfig& neighbor() const noexcept { return neighbor_; }
  [[nodiscard]] RouterId peer_router_id() const noexcept { return peer_router_id_; }
  [[nodiscard]] std::uint16_t negotiated_hold() const noexcept { return negotiated_hold_; }
  [[nodiscard]] bool ebgp() const noexcept { return neighbor_.asn != local_.asn; }

  // Checkpoint support: FSM state + negotiated values travel as a
  // SessionCheckpoint (encoded by ckpt::write_session_v2). Timers are
  // re-armed on apply according to the applied state.
  void apply_checkpoint(const SessionCheckpoint& checkpoint);

  /// Returns the session to its just-constructed state (Idle, timers
  /// cancelled, stats zeroed) without notifying the host — clone-arena
  /// reuse, not a protocol event.
  void reset_for_reuse();

  struct Stats {
    std::uint64_t opens_sent = 0;
    std::uint64_t updates_received = 0;
    std::uint64_t keepalives_received = 0;
    std::uint64_t notifications_received = 0;
    std::uint64_t resets = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void handle_open(const OpenMessage& open);
  void handle_keepalive();
  void handle_update(const UpdateMessage& update);
  void handle_notification(const NotificationMessage& notif);
  void go_established();
  void go_idle(const std::string& reason);
  void arm_hold_timer();
  void arm_keepalive_timer();
  void cancel_timers();

  SessionHost& host_;
  sim::NodeId peer_node_;
  NeighborConfig neighbor_;
  const RouterConfig& local_;

  SessionState state_ = SessionState::kIdle;
  RouterId peer_router_id_ = 0;
  std::uint16_t negotiated_hold_ = 0;
  sim::TimerHandle hold_timer_;
  sim::TimerHandle keepalive_timer_;
  Stats stats_;
};

}  // namespace dice::bgp
