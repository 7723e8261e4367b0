// NodeImplementation: the boundary between the DiCE harness and a BGP
// engine. The paper tests *federated, heterogeneous* systems — nodes built
// by different parties that interoperate over the wire but share no code.
// Everything above this interface (dice::System, the checks layer, the
// exploration matrix) talks to nodes only through it, so an independently
// structured engine (src/bgp2/) can sit in the same simulated network as
// the reference BgpRouter and be cloned, checkpointed and checked by the
// exact same machinery.
//
// What a conforming implementation must guarantee (docs/HETEROGENEITY.md):
//   - speak the shared wire codec (bgp/codec.hpp) over the frame transport;
//   - implement snapshot::Checkpointable with the v2 tagged-section format
//     (bgp/checkpoint_codec.hpp) including the delta-baseline envelope, so
//     prepared clones and delta snapshots work unchanged — the built-in
//     engines compose bgp::CheckpointLineage (bgp/checkpoint_lineage.hpp)
//     for this and supply only their session entries;
//   - keep every observable surface below deterministic for a fixed event
//     order (no wall clock, no unseeded randomness);
//   - expose its decision process through for_each_decision so the
//     differential checker can replay each choice against the reference
//     decision procedure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/config.hpp"
#include "bgp/rib.hpp"
#include "sim/network.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/participant.hpp"

namespace dice::bgp {

/// Registry id of the reference implementation (bgp/router.hpp).
inline constexpr std::string_view kBgpRouterImplementationId = "bgp";

/// Normalized summary of a node's selected routes: order-independent
/// content hash + route count. Two conforming implementations fed the same
/// routes must converge to equal digests; divergence is the federated
/// fault signal (dice::DifferentialCheck).
struct RibDigest {
  std::uint64_t hash = 0;
  std::size_t routes = 0;

  bool operator==(const RibDigest&) const = default;
};

class NodeImplementation : public snapshot::SnapshotParticipant,
                           public snapshot::Checkpointable {
 public:
  NodeImplementation(sim::Network& network, sim::NodeId id)
      : snapshot::SnapshotParticipant(network, id) {}

  /// Counters every engine maintains; checkers read them implementation-
  /// agnostically (crash detection via handler_crashes, fuzz-reject
  /// accounting via decode_failures, ...).
  struct Stats {
    std::uint64_t updates_received = 0;
    std::uint64_t updates_sent = 0;
    std::uint64_t withdraws_sent = 0;
    std::uint64_t decision_runs = 0;
    std::uint64_t best_changes = 0;
    std::uint64_t import_rejects = 0;
    std::uint64_t loop_rejects = 0;
    std::uint64_t decode_failures = 0;
    std::uint64_t handler_crashes = 0;
  };

  /// One decision-process outcome: the prefix, what the node selected
  /// (nullptr = nothing selected), and the candidate set it chose from.
  /// Candidates are the full Routes (post import policy), borrowed from the
  /// node's tables, so the checker can rerun the reference decision
  /// procedure on them without copying any.
  struct DecisionView {
    util::IpPrefix prefix;
    const Route* selected = nullptr;
    std::span<const Route* const> candidates;
  };

  /// Stable registry id ("bgp", "fsm", ...). Greppable constants live next
  /// to each engine (kBgpRouterImplementationId, kFsmEngineImplementationId).
  [[nodiscard]] virtual std::string_view implementation_id() const noexcept = 0;

  /// Originates configured networks and starts all neighbor sessions.
  virtual void start() = 0;

  [[nodiscard]] virtual const RouterConfig& config() const noexcept = 0;
  [[nodiscard]] virtual const Rib& loc_rib() const noexcept = 0;
  [[nodiscard]] virtual const std::map<util::IpPrefix, std::uint32_t>& best_flips()
      const noexcept = 0;
  /// Highest per-prefix best-route flip count since the last reset — O(1);
  /// the oscillation early-exit polls it every convergence round.
  [[nodiscard]] virtual std::uint32_t max_best_flips() const noexcept = 0;
  virtual void reset_flip_counters() = 0;
  [[nodiscard]] virtual const Stats& stats() const noexcept = 0;
  [[nodiscard]] virtual std::size_t established_session_count() const = 0;

  /// Disables automatic session restart (clones leave crashed sessions
  /// observable for the crash checker).
  virtual void set_auto_restart(bool enabled) noexcept = 0;
  /// Administratively resets one session (the paper's "local session
  /// reset" scenario); the session auto-restarts after a delay.
  virtual void reset_session(sim::NodeId peer) = 0;
  /// Returns the node to its just-constructed state for clone-arena reuse.
  virtual void reset_for_reuse() = 0;

  /// Normalized selected-route summary for cross-implementation comparison.
  [[nodiscard]] virtual RibDigest rib_digest() const {
    return RibDigest{loc_rib().content_hash(), loc_rib().size()};
  }

  /// Invokes `fn` once per prefix the node holds an opinion about (locally
  /// originated, learned, or selected), in ascending prefix order. The
  /// DecisionView pointers are valid only for the duration of the call.
  virtual void for_each_decision(
      const std::function<void(const DecisionView&)>& fn) const = 0;

  /// The checkpoint this node was last apply()'d from, while the node is
  /// still *clean*: nothing a route-derived check reads (Loc-RIB,
  /// Adj-RIB-In) has changed since. Flip-counter clears keep a node clean;
  /// any other state change, reset_for_reuse, or the checkpoint being freed
  /// makes it dirty (nullptr). A node never restored from a checkpoint (a
  /// bootstrapped live system) is dirty. The default — always dirty — is
  /// the safe answer for an engine that does not track its churn.
  [[nodiscard]] virtual std::shared_ptr<const snapshot::DecodedCheckpoint>
  clean_checkpoint() const {
    return nullptr;
  }

 protected:
  [[nodiscard]] snapshot::Checkpointable& checkpointable() override { return *this; }
};

/// The for_each_decision walk shared by engines that keep the reference
/// RIB layout: configured networks, per-peer Adj-RIB-In tables, Loc-RIB.
/// One ordered merge over the already-sorted tables visits every prefix
/// once, in ascending order; candidates are the locally originated route
/// (when `prefix` is a configured network) followed by the Adj-RIB-In
/// entries in peer order — the candidate order of the engines' decision
/// process — borrowed, not copied.
void for_each_rib_decision(const RouterConfig& config,
                           const std::map<sim::NodeId, Rib>& adj_in, const Rib& loc_rib,
                           const std::function<void(const NodeImplementation::DecisionView&)>& fn);

/// The route a node originates for configured network `prefix`.
[[nodiscard]] Route local_route(const RouterConfig& config, const util::IpPrefix& prefix);

/// Process-wide factory table, keyed by implementation id. Blueprints name
/// implementations by id; dice::System resolves them here at construction.
/// Built-ins ("bgp", "fsm") are registered on first use; additional
/// engines may register before any System is built.
class NodeImplementationRegistry {
 public:
  using AddressBook = std::shared_ptr<const std::map<util::IpAddress, sim::NodeId>>;
  using Factory = std::function<std::unique_ptr<NodeImplementation>(
      sim::Network&, sim::NodeId, RouterConfig, AddressBook)>;

  [[nodiscard]] static NodeImplementationRegistry& instance();

  /// Replaces any existing factory under `id`.
  void register_factory(std::string id, Factory factory);
  [[nodiscard]] bool contains(std::string_view id) const;
  /// Registered ids in sorted order (campaign validation, docs).
  [[nodiscard]] std::vector<std::string> ids() const;
  /// Returns nullptr for an unknown id.
  [[nodiscard]] std::unique_ptr<NodeImplementation> create(
      std::string_view id, sim::Network& network, sim::NodeId node,
      RouterConfig config, AddressBook address_book) const;

 private:
  NodeImplementationRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, Factory, std::less<>> factories_;
};

}  // namespace dice::bgp
