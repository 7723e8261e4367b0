// BgpRouter: a complete BGP speaker wired into the simulated network.
//
// Responsibilities:
//   - per-neighbor sessions (session.hpp) over the frame transport;
//   - UPDATE processing: import policy -> Adj-RIB-In -> decision process ->
//     Loc-RIB -> export policy -> Adj-RIB-Out deltas -> UPDATEs out;
//   - origination of configured `network` prefixes;
//   - AS-path loop rejection, NO_EXPORT handling, split horizon;
//   - checkpoint/restore of all dynamic state (snapshot participant);
//   - fault surface: handler crashes (injected bugs) are caught, counted
//     and surfaced to DiCE's checkers; per-prefix best-route flip counters
//     feed the oscillation (policy conflict) checker.
#pragma once

#include <map>
#include <memory>

#include "bgp/codec.hpp"
#include "bgp/config.hpp"
#include "bgp/decision.hpp"
#include "bgp/node_impl.hpp"
#include "bgp/rib.hpp"
#include "bgp/session.hpp"

namespace dice::bgp {

/// Total number of checkpoint decodes (BgpRouter::parse calls) performed in
/// this process — the receipt that the prepared pipeline decodes once, not
/// once per clone (snapshot_prepared_test reads the deltas).
[[nodiscard]] std::uint64_t checkpoint_decode_count() noexcept;

/// Typed form of a router checkpoint: everything BgpRouter::checkpoint
/// serializes, parsed once and shared read-only by all clones restoring
/// from the same snapshot.
struct RouterCheckpoint final : snapshot::DecodedCheckpoint {
  std::vector<std::pair<sim::NodeId, SessionCheckpoint>> sessions;
  std::vector<std::pair<sim::NodeId, Rib>> adj_in;
  Rib loc_rib;
  std::vector<std::pair<sim::NodeId, Rib>> adj_out;
  std::vector<std::pair<util::IpPrefix, std::uint32_t>> best_flips;
};

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
  [[nodiscard]] const Rib& loc_rib() const noexcept override { return loc_rib_; }
  [[nodiscard]] const Rib* adj_rib_in(sim::NodeId peer) const;
  [[nodiscard]] const Rib* adj_rib_out(sim::NodeId peer) const;
  [[nodiscard]] Session* session(sim::NodeId peer);
  [[nodiscard]] const std::map<sim::NodeId, std::unique_ptr<Session>>& sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] const std::map<util::IpPrefix, std::uint32_t>& best_flips()
      const noexcept override {
    return best_flips_;
  }

  [[nodiscard]] const Stats& stats() const noexcept override { return stats_; }
  void reset_flip_counters() override {
    best_flips_.clear();
    max_best_flips_ = 0;
    // Flip counters are checkpointed state, but no route-derived check
    // reads them: a clean node stays clean.
    const bool clean = applied_version_ == state_version_;
    ++state_version_;
    if (clean) applied_version_ = state_version_;
  }
  /// Highest per-prefix best-route flip count seen since the counters were
  /// last reset — O(1), maintained incrementally so the oscillation
  /// early-exit poll (System::converge_bounded) stays cheap.
  [[nodiscard]] std::uint32_t max_best_flips() const noexcept override {
    return max_best_flips_;
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
  // checkpoint() emits the byte-coded v2 format (bgp/checkpoint_codec.hpp);
  // parse() refuses any other first byte with `router.restore.unknown_format`.
  void checkpoint(util::ByteWriter& writer) const override;
  [[nodiscard]] util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> parse(
      util::ByteReader& reader) const override;
  [[nodiscard]] util::Status apply(const snapshot::DecodedCheckpoint& state) override;
  /// Delta-aware encode: when `baseline` is the snapshot this router last
  /// encoded into and no checkpointed state changed since (tracked by a
  /// monotonic version counter bumped on every mutation), writes the
  /// one-byte "same as baseline" envelope. Falls back to a full v2
  /// checkpoint otherwise. Returned hash is always the full-state hash.
  [[nodiscard]] std::uint64_t encode_checkpoint(util::ByteWriter& writer,
                                                snapshot::SnapshotId this_snapshot,
                                                snapshot::SnapshotId baseline) override;
  /// Monotonic churn counter: bumps whenever checkpointed state (sessions,
  /// RIBs, flip counters) changes. Equal versions => byte-identical
  /// checkpoints. Exposed for tests and the snapshot-scale bench.
  [[nodiscard]] std::uint64_t state_version() const noexcept { return state_version_; }
  /// Clean while state_version_ still equals the version apply() left.
  [[nodiscard]] std::shared_ptr<const snapshot::DecodedCheckpoint> clean_checkpoint()
      const override {
    return applied_version_ == state_version_ ? applied_.lock() : nullptr;
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
  void session_state_dirty() override { ++state_version_; }
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

  std::map<sim::NodeId, Rib> adj_in_;
  Rib loc_rib_;
  std::map<sim::NodeId, Rib> adj_out_;
  std::map<util::IpPrefix, std::uint32_t> best_flips_;
  std::uint32_t max_best_flips_ = 0;

  Stats stats_;
  bool auto_restart_ = true;
  sim::Time restart_delay_ = sim::kSecond;

  /// Delta-snapshot bookkeeping. `state_version_` bumps on every mutation
  /// of checkpointed state (over-bumping is safe; under-bumping would make
  /// a stale delta — every mutation site must bump). `last_checkpoint_`
  /// remembers the snapshot the router last encoded into: a delta is legal
  /// iff the requested baseline IS that snapshot and the version is
  /// unchanged since.
  std::uint64_t state_version_ = 0;
  struct LastCheckpoint {
    snapshot::SnapshotId snapshot = 0;  ///< 0 = never encoded / invalidated
    std::uint64_t version = 0;
    std::uint64_t hash = 0;  ///< full-state hash at `version`
  };
  LastCheckpoint last_checkpoint_;
  /// Clean-node bookkeeping (clean_checkpoint): the checkpoint the last
  /// successful apply() restored and the version it left behind.
  std::weak_ptr<const snapshot::DecodedCheckpoint> applied_;
  std::uint64_t applied_version_ = 0;
};

}  // namespace dice::bgp
