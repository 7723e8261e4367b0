#include "bgp/decision.hpp"

namespace dice::bgp {

std::string_view to_string(DecisionRule rule) noexcept {
  switch (rule) {
    case DecisionRule::kEqual: return "equal";
    case DecisionRule::kLocalRoute: return "local-route";
    case DecisionRule::kLocalPref: return "local-pref";
    case DecisionRule::kAsPathLength: return "as-path-length";
    case DecisionRule::kOrigin: return "origin";
    case DecisionRule::kMed: return "med";
    case DecisionRule::kEbgpOverIbgp: return "ebgp-over-ibgp";
    case DecisionRule::kRouterId: return "router-id";
    case DecisionRule::kPeerAddress: return "peer-address";
  }
  return "?";
}

Comparison compare_routes(const Route& a, const Route& b, const DecisionOptions& options) {
  // Locally originated routes win outright (administrative preference).
  if (a.local() != b.local()) {
    return Comparison{a.local() ? -1 : 1, DecisionRule::kLocalRoute};
  }

  // a) Highest LOCAL_PREF.
  const std::uint32_t lp_a = a.attrs.effective_local_pref();
  const std::uint32_t lp_b = b.attrs.effective_local_pref();
  if (lp_a != lp_b) {
    return Comparison{lp_a > lp_b ? -1 : 1, DecisionRule::kLocalPref};
  }

  // b) Shortest AS_PATH.
  const std::size_t len_a = a.attrs.as_path.selection_length();
  const std::size_t len_b = b.attrs.as_path.selection_length();
  if (len_a != len_b) {
    return Comparison{len_a < len_b ? -1 : 1, DecisionRule::kAsPathLength};
  }

  // c) Lowest Origin.
  if (a.attrs.origin != b.attrs.origin) {
    return Comparison{a.attrs.origin < b.attrs.origin ? -1 : 1, DecisionRule::kOrigin};
  }

  // d) Lowest MED, comparable only between routes from the same neighbor AS
  //    unless always_compare_med is set.
  const auto first_a = a.attrs.as_path.first_asn();
  const auto first_b = b.attrs.as_path.first_asn();
  const bool med_comparable =
      options.always_compare_med || (first_a.has_value() && first_a == first_b);
  if (med_comparable) {
    const std::uint32_t med_a = a.attrs.effective_med();
    const std::uint32_t med_b = b.attrs.effective_med();
    if (med_a != med_b) {
      return Comparison{med_a < med_b ? -1 : 1, DecisionRule::kMed};
    }
  }

  // e) Prefer eBGP-learned over iBGP-learned.
  if (a.source.ebgp != b.source.ebgp) {
    return Comparison{a.source.ebgp ? -1 : 1, DecisionRule::kEbgpOverIbgp};
  }

  // f) Lowest peer router id.
  if (a.source.peer_router_id != b.source.peer_router_id) {
    return Comparison{a.source.peer_router_id < b.source.peer_router_id ? -1 : 1,
                      DecisionRule::kRouterId};
  }

  // g) Lowest peer address.
  if (a.source.peer_address != b.source.peer_address) {
    return Comparison{a.source.peer_address < b.source.peer_address ? -1 : 1,
                      DecisionRule::kPeerAddress};
  }

  return Comparison{0, DecisionRule::kEqual};
}

namespace {

/// First strictly preferred candidate wins; `at(i)` yields candidate i.
template <typename At>
[[nodiscard]] std::size_t best_index(std::size_t count, At at, const DecisionOptions& options) {
  if (count == 0) return SIZE_MAX;
  std::size_t best = 0;
  for (std::size_t i = 1; i < count; ++i) {
    if (compare_routes(at(i), at(best), options).order < 0) best = i;
  }
  return best;
}

}  // namespace

std::size_t select_best(const std::vector<Route>& candidates, const DecisionOptions& options) {
  return best_index(
      candidates.size(), [&](std::size_t i) -> const Route& { return candidates[i]; },
      options);
}

std::size_t select_best_of(std::span<const Route* const> candidates,
                           const DecisionOptions& options) {
  return best_index(
      candidates.size(), [&](std::size_t i) -> const Route& { return *candidates[i]; },
      options);
}

}  // namespace dice::bgp
