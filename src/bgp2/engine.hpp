// FsmEngine: the second, independently structured BGP implementation behind
// the NodeImplementation boundary. It interoperates with the reference
// BgpRouter over the shared wire codec and emits the same v2 checkpoint
// stream, but its internals follow the standalone-FSM-library shape instead
// of the monolithic-router shape:
//   - per-peer PeerFsm with an explicit (state, event) dispatch table and
//     OPEN-collision counting (bgp2/fsm.hpp);
//   - a RouteEventBus between import and decision: RIB mutations post
//     events, decisions run batched per dirty prefix when the bus drains at
//     the end of the protocol event (bgp2/bus.hpp);
//   - an injectable decision defect (bugs::kLongPathPreferred) the reference
//     engine does not have — the seeded divergence the differential check
//     (dice/checks.hpp) exists to catch.
#pragma once

#include <map>
#include <memory>

#include "bgp/checkpoint_codec.hpp"
#include "bgp/codec.hpp"
#include "bgp/config.hpp"
#include "bgp/decision.hpp"
#include "bgp/node_impl.hpp"
#include "bgp/rib.hpp"
#include "bgp2/bus.hpp"
#include "bgp2/fsm.hpp"

namespace dice::bgp2 {

/// Registry id of this engine (registered in bgp/node_impl.cpp).
inline constexpr std::string_view kFsmEngineImplementationId = "fsm";

/// Typed form of an FsmEngine checkpoint: the shared v2 stream shape,
/// parsed once and applied to any number of clones.
struct FsmCheckpoint final : snapshot::DecodedCheckpoint {
  bgp::ckpt::RouterStateV2 state;
};

class FsmEngine final : public bgp::NodeImplementation, public PeerFsm::Host {
 public:
  FsmEngine(sim::Network& network, sim::NodeId id, bgp::RouterConfig config,
            std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book);

  // --- NodeImplementation ---------------------------------------------------
  [[nodiscard]] std::string_view implementation_id() const noexcept override {
    return kFsmEngineImplementationId;
  }
  void start() override;
  [[nodiscard]] const bgp::RouterConfig& config() const noexcept override {
    return config_;
  }
  [[nodiscard]] const bgp::Rib& loc_rib() const noexcept override { return loc_rib_; }
  [[nodiscard]] const std::map<util::IpPrefix, std::uint32_t>& best_flips()
      const noexcept override {
    return best_flips_;
  }
  [[nodiscard]] std::uint32_t max_best_flips() const noexcept override {
    return max_best_flips_;
  }
  void reset_flip_counters() override {
    best_flips_.clear();
    max_best_flips_ = 0;
    const bool clean = applied_version_ == state_version_;  // flips keep it clean
    ++state_version_;
    if (clean) applied_version_ = state_version_;
  }
  [[nodiscard]] const Stats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t established_session_count() const override;
  void set_auto_restart(bool enabled) noexcept override { auto_restart_ = enabled; }
  void reset_session(sim::NodeId peer) override;
  void reset_for_reuse() override;
  void for_each_decision(
      const std::function<void(const DecisionView&)>& fn) const override;

  // --- introspection (tests) ------------------------------------------------
  [[nodiscard]] PeerFsm* fsm(sim::NodeId peer);
  [[nodiscard]] const bgp::Rib* adj_rib_in(sim::NodeId peer) const;
  [[nodiscard]] const RouteEventBus& bus() const noexcept { return bus_; }
  /// Sum of per-peer OPEN-collision detections.
  [[nodiscard]] std::uint64_t collisions_detected() const;
  [[nodiscard]] std::uint64_t state_version() const noexcept { return state_version_; }
  [[nodiscard]] std::shared_ptr<const snapshot::DecodedCheckpoint> clean_checkpoint()
      const override {
    return applied_version_ == state_version_ ? applied_.lock() : nullptr;
  }

  // --- Checkpointable -------------------------------------------------------
  void checkpoint(util::ByteWriter& writer) const override;
  [[nodiscard]] util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> parse(
      util::ByteReader& reader) const override;
  [[nodiscard]] util::Status apply(const snapshot::DecodedCheckpoint& state) override;
  [[nodiscard]] std::uint64_t encode_checkpoint(util::ByteWriter& writer,
                                                snapshot::SnapshotId this_snapshot,
                                                snapshot::SnapshotId baseline) override;

  // --- PeerFsm::Host --------------------------------------------------------
  void fsm_send(sim::NodeId peer, const bgp::Message& msg, bool background) override;
  void fsm_established(sim::NodeId peer) override;
  void fsm_down(sim::NodeId peer, const std::string& reason) override;
  void fsm_update(sim::NodeId peer, const bgp::UpdateMessage& update) override;
  void fsm_state_dirty() override { ++state_version_; }
  [[nodiscard]] sim::Simulator& fsm_simulator() override {
    return network().simulator();
  }

 protected:
  // --- SnapshotParticipant --------------------------------------------------
  void deliver_data(sim::NodeId from, const util::Bytes& payload) override;

 private:
  void import_update(sim::NodeId peer, const bgp::UpdateMessage& update);
  [[nodiscard]] std::vector<bgp::Route> collect_candidates(
      const util::IpPrefix& prefix) const;
  /// The decision step the bus drain runs per dirty prefix. Selection is
  /// the reference procedure unless bugs::kLongPathPreferred is set.
  [[nodiscard]] std::size_t choose_best(const std::vector<bgp::Route>& candidates) const;
  void decide(const util::IpPrefix& prefix);
  void propagate(const util::IpPrefix& prefix);
  void export_to_peer(PeerFsm& fsm, const util::IpPrefix& prefix);
  void send_full_table(PeerFsm& fsm);
  void schedule_restart(sim::NodeId peer);

  bgp::RouterConfig config_;
  std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book_;
  std::map<sim::NodeId, std::unique_ptr<PeerFsm>> fsms_;

  RouteEventBus bus_;
  std::map<sim::NodeId, bgp::Rib> adj_in_;
  bgp::Rib loc_rib_;
  std::map<sim::NodeId, bgp::Rib> adj_out_;
  std::map<util::IpPrefix, std::uint32_t> best_flips_;
  std::uint32_t max_best_flips_ = 0;

  Stats stats_;
  bool auto_restart_ = true;
  sim::Time restart_delay_ = sim::kSecond;

  // Delta-snapshot bookkeeping, same contract as the reference engine:
  // over-bumping state_version_ is safe, under-bumping would ship a stale
  // delta.
  std::uint64_t state_version_ = 0;
  struct LastCheckpoint {
    snapshot::SnapshotId snapshot = 0;
    std::uint64_t version = 0;
    std::uint64_t hash = 0;
  };
  LastCheckpoint last_checkpoint_;
  // Clean-node bookkeeping, same contract as the reference engine.
  std::weak_ptr<const snapshot::DecodedCheckpoint> applied_;
  std::uint64_t applied_version_ = 0;
};

}  // namespace dice::bgp2
