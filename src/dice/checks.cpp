#include "dice/checks.hpp"

#include <algorithm>

#include "bgp/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace dice::core {

std::uint64_t hash_prefix(const util::IpPrefix& prefix, std::uint64_t salt) {
  std::uint64_t h = util::hash_mix(salt, prefix.address().value());
  h = util::hash_mix(h, prefix.length());
  return util::hash_finalize(h);
}

CheckVerdict CrashCheck::run(const bgp::NodeImplementation& router) const {
  CheckVerdict verdict;
  verdict.check = std::string(name());
  verdict.node = router.node_id();
  const std::uint64_t crashes = router.stats().handler_crashes;
  verdict.counters["handler_crashes"] = crashes;
  verdict.counters["decode_failures"] = router.stats().decode_failures;
  verdict.ok = crashes == 0;
  if (!verdict.ok) {
    verdict.summary =
        util::format("%llu handler crash(es) observed", static_cast<unsigned long long>(crashes));
  }
  return verdict;
}

CheckVerdict OscillationCheck::run(const bgp::NodeImplementation& router) const {
  CheckVerdict verdict;
  verdict.check = std::string(name());
  verdict.node = router.node_id();
  std::uint32_t max_flips = 0;
  std::uint64_t oscillating_prefixes = 0;
  for (const auto& [prefix, flips] : router.best_flips()) {
    max_flips = std::max(max_flips, flips);
    if (flips >= flip_threshold_) ++oscillating_prefixes;
  }
  verdict.counters["max_flips"] = max_flips;
  verdict.counters["oscillating_prefixes"] = oscillating_prefixes;
  verdict.counters["threshold"] = flip_threshold_;
  verdict.ok = oscillating_prefixes == 0;
  if (!verdict.ok) {
    verdict.summary = util::format(
        "%llu prefix(es) flipped best route >= %u times (route oscillation)",
        static_cast<unsigned long long>(oscillating_prefixes), flip_threshold_);
  }
  return verdict;
}

namespace {

/// Calls `fn(claim)` for every origin claim the node's Loc-RIB makes.
template <typename Fn>
void for_each_origin_claim(const bgp::NodeImplementation& router, Fn&& fn) {
  for (const auto& [prefix, route] : router.loc_rib().table()) {
    const bgp::Asn origin =
        route.local() ? router.config().asn
                      : route.attrs.as_path.origin_asn().value_or(route.source.peer_asn);
    // Claim the exact prefix AND every covering prefix down to /8. This
    // keeps sub-prefix (more-specific) hijacks detectable through the
    // hashed interface: the owner of the covering block will recognize its
    // own prefix hash among the claims. Claims are still only hashes —
    // observers learn nothing about prefixes they don't own.
    fn(CheckVerdict::OriginClaim{hash_prefix(prefix), origin});
    for (int len = static_cast<int>(prefix.length()) - 1; len >= 8; --len) {
      fn(CheckVerdict::OriginClaim{
          hash_prefix(util::IpPrefix{prefix.address(), static_cast<std::uint8_t>(len)}),
          origin});
    }
  }
}

}  // namespace

CheckVerdict OriginClaimCheck::run(const bgp::NodeImplementation& router) const {
  CheckVerdict verdict;
  verdict.check = std::string(name());
  verdict.node = router.node_id();
  for_each_origin_claim(router, [&](const CheckVerdict::OriginClaim& claim) {
    verdict.origin_claims.push_back(claim);
  });
  for (const util::IpPrefix& prefix : router.config().networks) {
    verdict.owned_prefix_hashes.push_back(hash_prefix(prefix));
  }
  verdict.counters["claims"] = verdict.origin_claims.size();
  verdict.counters["owned"] = verdict.owned_prefix_hashes.size();
  return verdict;
}

CheckVerdict RouteConsistencyCheck::run(const bgp::NodeImplementation& router) const {
  CheckVerdict verdict;
  verdict.check = std::string(name());
  verdict.node = router.node_id();
  std::uint64_t bad_next_hop = 0;
  std::uint64_t own_asn_in_path = 0;
  const bgp::RouterConfig& config = router.config();
  for (const auto& [prefix, route] : router.loc_rib().table()) {
    if (route.local()) continue;
    // iBGP-learned routes keep the original eBGP next hop and resolve it
    // recursively (no IGP layer here); only eBGP routes must point at a
    // directly known neighbor.
    if (route.source.ebgp &&
        config.neighbor_by_address(route.attrs.next_hop) == nullptr &&
        route.attrs.next_hop != config.address) {
      ++bad_next_hop;
    }
    if (route.attrs.as_path.contains(config.asn)) ++own_asn_in_path;
  }
  verdict.counters["bad_next_hop"] = bad_next_hop;
  verdict.counters["own_asn_in_path"] = own_asn_in_path;
  verdict.ok = bad_next_hop == 0 && own_asn_in_path == 0;
  if (!verdict.ok) {
    verdict.summary = util::format(
        "%llu route(s) with unreachable next hop, %llu with local ASN in path",
        static_cast<unsigned long long>(bad_next_hop),
        static_cast<unsigned long long>(own_asn_in_path));
  }
  return verdict;
}

CheckVerdict DifferentialCheck::run(const bgp::NodeImplementation& router) const {
  static obs::Counter& checks_counter =
      obs::MetricsRegistry::global().counter(obs::names::kDifferentialChecks);
  static obs::Counter& divergence_counter =
      obs::MetricsRegistry::global().counter(obs::names::kDifferentialDivergence);
  checks_counter.add();

  CheckVerdict verdict;
  verdict.check = std::string(name());
  verdict.node = router.node_id();

  bgp::DecisionOptions options;
  options.always_compare_med = router.config().always_compare_med;
  std::uint64_t decisions = 0;
  std::uint64_t divergent = 0;
  // Order-stable fingerprint of the divergent prefixes (hashed — nothing
  // about the prefixes themselves leaves the node).
  std::uint64_t evidence = 0;
  router.for_each_decision([&](const bgp::NodeImplementation::DecisionView& view) {
    ++decisions;
    const std::size_t best = bgp::select_best_of(view.candidates, options);
    const bgp::Route* expected = best == SIZE_MAX ? nullptr : view.candidates[best];
    const bool match =
        expected == nullptr ? view.selected == nullptr
                            : view.selected != nullptr && *view.selected == *expected;
    if (!match) {
      ++divergent;
      evidence = util::hash_mix(evidence, hash_prefix(view.prefix));
    }
  });
  verdict.counters["decisions"] = decisions;
  verdict.counters["divergent"] = divergent;
  verdict.ok = divergent == 0;
  if (!verdict.ok) {
    divergence_counter.add(divergent);
    verdict.summary = util::format(
        "%llu of %llu decision(s) diverge from the reference decision process "
        "(impl=%s evidence=%016llx)",
        static_cast<unsigned long long>(divergent),
        static_cast<unsigned long long>(decisions),
        std::string(router.implementation_id()).c_str(),
        static_cast<unsigned long long>(util::hash_finalize(evidence)));
  }
  return verdict;
}

std::map<std::uint64_t, bgp::Asn> collect_owners(
    const std::vector<CheckVerdict>& verdicts,
    const std::map<sim::NodeId, bgp::Asn>& node_asns) {
  std::map<std::uint64_t, bgp::Asn> owners;
  for (const CheckVerdict& verdict : verdicts) {
    auto asn_it = node_asns.find(verdict.node);
    if (asn_it == node_asns.end()) continue;
    for (std::uint64_t hash : verdict.owned_prefix_hashes) {
      // First owner wins; a prefix owned by two configs is itself the
      // hijack case and will surface as a violation below.
      owners.emplace(hash, asn_it->second);
    }
  }
  return owners;
}

OriginOwners origin_owners(const bgp::SystemBlueprint& blueprint) {
  OriginOwners owners;
  for (const bgp::RouterConfig& config : blueprint.configs) {
    for (const util::IpPrefix& prefix : config.networks) {
      owners.emplace(hash_prefix(prefix), config.asn);  // first owner wins
    }
  }
  return owners;
}

std::vector<OriginOffense> offending_origin_claims(const bgp::NodeImplementation& router,
                                                   const OriginOwners& owners) {
  std::vector<OriginOffense> offenses;
  for_each_origin_claim(router, [&](const CheckVerdict::OriginClaim& claim) {
    auto owner_it = owners.find(claim.prefix_hash);
    if (owner_it != owners.end() && owner_it->second != claim.origin) {
      offenses.push_back(OriginOffense{claim.prefix_hash, claim.origin, 1});
    }
  });
  std::sort(offenses.begin(), offenses.end(), [](const OriginOffense& a, const OriginOffense& b) {
    return std::pair(a.prefix_hash, a.origin) < std::pair(b.prefix_hash, b.origin);
  });
  // Fold repeats of one pair into its count.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < offenses.size(); ++i) {
    if (kept > 0 && offenses[kept - 1].prefix_hash == offenses[i].prefix_hash &&
        offenses[kept - 1].origin == offenses[i].origin) {
      ++offenses[kept - 1].count;
    } else {
      offenses[kept++] = offenses[i];
    }
  }
  offenses.resize(kept);
  return offenses;
}

std::vector<OriginViolation> aggregate_origin_claims(
    const std::vector<CheckVerdict>& verdicts,
    const std::map<std::uint64_t, bgp::Asn>& owners) {
  // (prefix_hash, bad origin) -> observers
  std::map<std::pair<std::uint64_t, bgp::Asn>, std::vector<sim::NodeId>> offenders;
  for (const CheckVerdict& verdict : verdicts) {
    for (const CheckVerdict::OriginClaim& claim : verdict.origin_claims) {
      auto owner_it = owners.find(claim.prefix_hash);
      if (owner_it == owners.end()) continue;  // nobody owns it; not checkable
      if (claim.origin != owner_it->second) {
        offenders[{claim.prefix_hash, claim.origin}].push_back(verdict.node);
      }
    }
  }
  std::vector<OriginViolation> violations;
  violations.reserve(offenders.size());
  for (auto& [key, observers] : offenders) {
    OriginViolation v;
    v.prefix_hash = key.first;
    v.legitimate_origin = owners.at(key.first);
    v.observed_origin = key.second;
    std::sort(observers.begin(), observers.end());
    v.observers = std::move(observers);
    violations.push_back(std::move(v));
  }
  return violations;
}

}  // namespace dice::core
