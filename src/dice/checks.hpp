// DiCE property framework (paper §2 step iii: "checks for violations of
// properties that capture the desired system behavior").
//
// Federation constraint: "there cannot be unrestricted access to remote
// node states". Checks therefore run *locally* on each node with full
// access to that node's state, but export only a CheckVerdict through the
// narrow information-sharing interface: booleans, counters and *hashed*
// evidence — never RIB contents. Cross-node checks (route-origin
// authorization) correlate verdicts by hash: a node recognizes the hash of
// a prefix it owns, and learns nothing about anyone else's prefixes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/node_impl.hpp"
#include "bgp/topology.hpp"

namespace dice::core {

/// What crosses the federation boundary. Everything here is safe to share:
/// no prefixes, no AS paths, no RIB contents in the clear (origin ASNs are
/// public data in BGP; prefixes travel only as hashes).
struct CheckVerdict {
  std::string check;                            ///< check name
  sim::NodeId node = sim::kInvalidNode;
  bool ok = true;
  std::map<std::string, std::uint64_t> counters;
  std::string summary;                          ///< redacted human summary

  /// (prefix_hash, origin ASN) claims for cross-node origin validation.
  struct OriginClaim {
    std::uint64_t prefix_hash = 0;
    bgp::Asn origin = 0;
  };
  std::vector<OriginClaim> origin_claims;

  /// Hashes of prefixes this node legitimately originates (from its own
  /// configuration — information the owner chooses to publish).
  std::vector<std::uint64_t> owned_prefix_hashes;
};

/// Salted prefix hashing for the narrow interface. All nodes of one system
/// share the salt (negotiated out of band); outsiders cannot invert it.
[[nodiscard]] std::uint64_t hash_prefix(const util::IpPrefix& prefix,
                                        std::uint64_t salt = 0xd1ce0000beefULL);

/// A local check: full access to the local node, narrow output. Checks see
/// nodes through the NodeImplementation boundary, so they apply to every
/// engine uniformly (heterogeneous federation, docs/HETEROGENEITY.md).
class LocalCheck {
 public:
  virtual ~LocalCheck() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual CheckVerdict run(const bgp::NodeImplementation& router) const = 0;
};

/// Programming-error detector: any handler crash observed on the node.
class CrashCheck final : public LocalCheck {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "crash"; }
  [[nodiscard]] CheckVerdict run(const bgp::NodeImplementation& router) const override;
};

/// Policy-conflict detector: per-prefix best-route flip counts above the
/// threshold indicate route oscillation (dispute wheel).
class OscillationCheck final : public LocalCheck {
 public:
  explicit OscillationCheck(std::uint32_t flip_threshold = 8)
      : flip_threshold_(flip_threshold) {}
  [[nodiscard]] std::string_view name() const noexcept override { return "oscillation"; }
  [[nodiscard]] CheckVerdict run(const bgp::NodeImplementation& router) const override;

 private:
  std::uint32_t flip_threshold_;
};

/// Publishes origin claims from the local Loc-RIB plus the owned-prefix
/// hashes from the local configuration. Never fails locally — violations
/// only exist at aggregation time (OriginAggregator).
class OriginClaimCheck final : public LocalCheck {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "origin-claims"; }
  [[nodiscard]] CheckVerdict run(const bgp::NodeImplementation& router) const override;
};

/// Route sanity: every Loc-RIB entry's NEXT_HOP must be a configured
/// neighbor address (or self for local routes), and no accepted route may
/// carry the local ASN in its AS_PATH.
class RouteConsistencyCheck final : public LocalCheck {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "route-consistency"; }
  [[nodiscard]] CheckVerdict run(const bgp::NodeImplementation& router) const override;
};

/// Implementation-divergence detector (the differential oracle of
/// heterogeneous federation): replays every decision the node reports via
/// for_each_decision through the *reference* decision process
/// (bgp/decision.hpp) and flags any prefix where the node's selection
/// differs — same candidates, divergent outcome. The reference engine
/// maintains `loc_rib[prefix] == select_best(candidates)` as an invariant,
/// so this check never fires on it; on a foreign engine a firing means the
/// implementations would disagree about the network's routing. Evidence
/// crosses the federation boundary only as hashed prefixes.
class DifferentialCheck final : public LocalCheck {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "differential"; }
  [[nodiscard]] CheckVerdict run(const bgp::NodeImplementation& router) const override;
};

/// Cross-node aggregation of origin claims (the hijack detector). For each
/// prefix hash that some node declared as owned, every claim with a
/// different origin ASN is a violation (Multiple-Origin-AS conflict /
/// prefix hijack — the paper's operator-mistake fault class).
struct OriginViolation {
  std::uint64_t prefix_hash = 0;
  bgp::Asn legitimate_origin = 0;
  bgp::Asn observed_origin = 0;
  std::vector<sim::NodeId> observers;  ///< nodes whose Loc-RIB carries it
};

[[nodiscard]] std::vector<OriginViolation> aggregate_origin_claims(
    const std::vector<CheckVerdict>& verdicts,
    const std::map<std::uint64_t, bgp::Asn>& owners);

/// Builds the owner map (prefix hash -> owner ASN) from verdicts: each
/// node publishes hashes of the prefixes it originates.
[[nodiscard]] std::map<std::uint64_t, bgp::Asn> collect_owners(
    const std::vector<CheckVerdict>& verdicts,
    const std::map<sim::NodeId, bgp::Asn>& node_asns);

/// The owner map straight from the configs — what collect_owners derives
/// from the verdicts' owned-prefix hashes, with the same first-owner-wins
/// rule in node order. Configs never change, so core::SystemPrototype
/// builds it once for every System of a blueprint.
using OriginOwners = std::unordered_map<std::uint64_t, bgp::Asn>;
[[nodiscard]] OriginOwners origin_owners(const bgp::SystemBlueprint& blueprint);

/// One node's origin claims that contradict `owners`: the (prefix_hash,
/// origin) pairs aggregate_origin_claims would file against it, with how
/// many times the node claims each pair (covering claims of two routes can
/// coincide; every one counts as an observation).
struct OriginOffense {
  std::uint64_t prefix_hash = 0;
  bgp::Asn origin = 0;
  std::uint32_t count = 0;
};

/// The node's offending claims, sorted by (prefix_hash, origin). Walks the
/// same claims OriginClaimCheck publishes without materializing them.
[[nodiscard]] std::vector<OriginOffense> offending_origin_claims(
    const bgp::NodeImplementation& router, const OriginOwners& owners);

}  // namespace dice::core
