// BgpRouter: a complete BGP speaker wired into the simulated network.
//
// Responsibilities:
//   - per-neighbor sessions (session.hpp) over the frame transport;
//   - UPDATE processing: import policy -> Adj-RIB-In -> decision process ->
//     Loc-RIB -> export policy -> Adj-RIB-Out deltas -> UPDATEs out;
//   - origination of configured `network` prefixes;
//   - AS-path loop rejection, NO_EXPORT handling, split horizon;
//   - checkpoint/restore of all dynamic state (snapshot participant) through
//     the CheckpointLineage it shares with every engine;
//   - fault surface: handler crashes (injected bugs) are caught, counted
//     and surfaced to DiCE's checkers; per-prefix best-route flip counters
//     feed the oscillation (policy conflict) checker.
#pragma once

#include <map>
#include <memory>

#include "bgp/checkpoint_lineage.hpp"
#include "bgp/codec.hpp"
#include "bgp/config.hpp"
#include "bgp/decision.hpp"
#include "bgp/node_impl.hpp"
#include "bgp/session.hpp"

namespace dice::bgp {

/// Total number of checkpoint decodes (BgpRouter::parse calls) performed in
/// this process — the receipt that the prepared pipeline decodes once, not
/// once per clone (snapshot_prepared_test reads the deltas).
[[nodiscard]] std::uint64_t checkpoint_decode_count() noexcept;

class BgpRouter final : public NodeImplementation, public SessionHost {
 public:
  /// `address_book` maps neighbor IP addresses to sim node ids (the
  /// topology's wiring); neighbors without an entry are ignored. The shared
  /// form lets every router of a system (and every clone of a blueprint)
  /// reference one immutable book instead of copying it per router.
  BgpRouter(sim::Network& network, sim::NodeId id, RouterConfig config,
            std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book);
  BgpRouter(sim::Network& network, sim::NodeId id, RouterConfig config,
            std::map<util::IpAddress, sim::NodeId> address_book);

  // --- NodeImplementation ---------------------------------------------------
  [[nodiscard]] std::string_view implementation_id() const noexcept override {
    return kBgpRouterImplementationId;
  }

  /// Originates configured networks and starts all neighbor sessions.
  void start() override;

  // --- introspection (tests, checkers, benches) ----------------------------
  [[nodiscard]] const RouterConfig& config() const noexcept override { return config_; }
  [[nodiscard]] const Rib& loc_rib() const noexcept override { return lineage_.loc_rib; }
  [[nodiscard]] const Rib* adj_rib_in(sim::NodeId peer) const;
  [[nodiscard]] const Rib* adj_rib_out(sim::NodeId peer) const;
  [[nodiscard]] Session* session(sim::NodeId peer);
  [[nodiscard]] const std::map<sim::NodeId, std::unique_ptr<Session>>& sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] const std::map<util::IpPrefix, std::uint32_t>& best_flips()
      const noexcept override {
    return lineage_.best_flips();
  }

  [[nodiscard]] const Stats& stats() const noexcept override { return stats_; }
  void reset_flip_counters() override { lineage_.reset_flip_counters(); }
  [[nodiscard]] std::uint32_t max_best_flips() const noexcept override {
    return lineage_.max_best_flips();
  }
  [[nodiscard]] std::size_t established_session_count() const override;

  /// Replays the decision process: for every prefix with local origination,
  /// an Adj-RIB-In entry or a Loc-RIB entry, rebuilds the exact candidate
  /// set run_decision() uses and reports it with the current selection.
  void for_each_decision(
      const std::function<void(const DecisionView&)>& fn) const override;

  /// Administratively resets one session (the paper's "local session reset"
  /// emergent-behavior scenario); the session auto-restarts after a delay.
  void reset_session(sim::NodeId peer) override;

  /// Disables automatic session restart (used by clones during exploration
  /// so a crash leaves an observable dead session).
  void set_auto_restart(bool enabled) noexcept override { auto_restart_ = enabled; }

  // --- Checkpointable -------------------------------------------------------
  // The v2 stream, its delta envelope and the clean-node record are the
  // shared CheckpointLineage (bgp/checkpoint_lineage.hpp); the router
  // supplies its sessions.
  void checkpoint(util::ByteWriter& writer) const override { lineage_.checkpoint(writer); }
  [[nodiscard]] util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> parse(
      util::ByteReader& reader) const override;
  [[nodiscard]] util::Status apply(const snapshot::DecodedCheckpoint& state) override;
  [[nodiscard]] std::uint64_t encode_checkpoint(util::ByteWriter& writer,
                                                snapshot::SnapshotId this_snapshot,
                                                snapshot::SnapshotId baseline) override {
    return lineage_.encode_checkpoint(writer, this_snapshot, baseline);
  }
  [[nodiscard]] std::shared_ptr<const snapshot::DecodedCheckpoint> clean_checkpoint()
      const override {
    return lineage_.clean_checkpoint();
  }

  /// Returns the router to its just-constructed state (empty RIBs, Idle
  /// sessions, zeroed stats/flip counters, aborted snapshot bookkeeping) so
  /// a clone-arena System can be re-seeded with apply() instead of being
  /// reconstructed.
  void reset_for_reuse() override;

  // --- SessionHost ----------------------------------------------------------
  void session_send(sim::NodeId peer, const Message& msg, bool background) override;
  void session_established(sim::NodeId peer) override;
  void session_down(sim::NodeId peer, const std::string& reason) override;
  void session_update(sim::NodeId peer, const UpdateMessage& update) override;
  void session_state_dirty() override { lineage_.bump(); }
  [[nodiscard]] sim::Simulator& session_simulator() override {
    return network().simulator();
  }

 protected:
  // --- SnapshotParticipant --------------------------------------------------
  void deliver_data(sim::NodeId from, const util::Bytes& payload) override;

 private:
  void originate_networks();
  void process_update(sim::NodeId peer, const UpdateMessage& update);
  /// The decision process's candidate set for `prefix`: the locally
  /// originated route (if configured) plus every Adj-RIB-In entry. Shared
  /// by run_decision() and for_each_decision() so the differential checker
  /// replays exactly what the decision saw.
  [[nodiscard]] std::vector<Route> collect_candidates(const util::IpPrefix& prefix) const;
  /// Re-runs the decision process for `prefix`; propagates on change.
  void run_decision(const util::IpPrefix& prefix);
  void propagate(const util::IpPrefix& prefix);
  void export_to_peer(Session& session, const util::IpPrefix& prefix);
  void send_full_table(Session& session);
  void schedule_restart(sim::NodeId peer);

  RouterConfig config_;
  std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>> address_book_;
  std::map<sim::NodeId, std::unique_ptr<Session>> sessions_;
  /// RIBs, flip counters and checkpoint bookkeeping. Every mutation of
  /// checkpointed state bumps its version.
  CheckpointLineage lineage_;

  Stats stats_;
  bool auto_restart_ = true;
  sim::Time restart_delay_ = sim::kSecond;
};

}  // namespace dice::bgp
