// The BGP decision process (RFC 4271 §9.1.2.2): a strict preference order
// over candidate routes for the same prefix. Exposed as a comparator plus
// the rule that decided, so tests can assert on tie-break levels and DiCE
// can report *why* a fault-inducing route won.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "bgp/rib.hpp"

namespace dice::bgp {

/// Which §9.1.2.2 step decided the comparison.
enum class DecisionRule : std::uint8_t {
  kEqual = 0,
  kLocalRoute,       // locally originated beats learned
  kLocalPref,        // a) highest LOCAL_PREF
  kAsPathLength,     // b) shortest AS_PATH
  kOrigin,           // c) lowest Origin (IGP < EGP < INCOMPLETE)
  kMed,              // d) lowest MED among same-neighbor-AS routes
  kEbgpOverIbgp,     // e) eBGP-learned beats iBGP-learned
  kRouterId,         // f) lowest peer router id
  kPeerAddress,      // g) lowest peer address
};

[[nodiscard]] std::string_view to_string(DecisionRule rule) noexcept;

struct DecisionOptions {
  /// Compare MED even when the first ASNs differ (vendor "always-compare-
  /// med" knob; the RFC default compares only within the same neighbor AS).
  bool always_compare_med = false;
};

struct Comparison {
  int order = 0;  ///< <0: a preferred, >0: b preferred, 0: identical
  DecisionRule rule = DecisionRule::kEqual;
};

/// Compares candidates a and b for the same prefix.
[[nodiscard]] Comparison compare_routes(const Route& a, const Route& b,
                                        const DecisionOptions& options = {});

/// Returns the index of the best route, or SIZE_MAX for an empty set.
[[nodiscard]] std::size_t select_best(const std::vector<Route>& candidates,
                                      const DecisionOptions& options = {});
/// The same procedure over borrowed candidates (the differential replay
/// hands RIB entries over without copying them).
[[nodiscard]] std::size_t select_best_of(std::span<const Route* const> candidates,
                                         const DecisionOptions& options = {});

}  // namespace dice::bgp
