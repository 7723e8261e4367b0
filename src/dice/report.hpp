// Fault reports: DiCE's output. Every detected violation is classified
// into the paper's three fault classes (§1: "programming errors, policy
// conflicts, and operator mistakes") and carries enough redacted evidence
// to reproduce: the exploration episode, the explorer, and the exact input
// bytes that were subjected to the clone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "util/bytes.hpp"

namespace dice::core {

enum class FaultClass : std::uint8_t {
  kProgrammingError,
  kPolicyConflict,
  kOperatorMistake,
  /// Heterogeneous-federation extension to the paper's three classes: two
  /// implementations fed the same routes disagree about the outcome
  /// (divergent decision or normalized RIB digest) — an interoperability
  /// defect neither implementation can see alone.
  kImplementationDivergence,
};

[[nodiscard]] std::string_view to_string(FaultClass fault_class) noexcept;

struct FaultReport {
  FaultClass fault_class = FaultClass::kProgrammingError;
  std::string check;        ///< which checker fired
  std::string description;  ///< redacted summary (narrow-interface safe)
  sim::NodeId node = sim::kInvalidNode;  ///< node that observed the fault
  std::uint64_t episode = 0;
  sim::NodeId explorer = sim::kInvalidNode;
  util::Bytes input;        ///< subjected UPDATE body (empty: baseline state)
  /// False: the fault exists in the system's *current* state (baseline
  /// clone). True: it only manifests under the subjected input — a latent
  /// vulnerability DiCE surfaced before any peer actually sent that input
  /// (the paper's "proactively detect potential faults").
  bool potential = false;

  [[nodiscard]] std::string to_string() const;

  bool operator==(const FaultReport&) const = default;
};

/// Deduplication key: same class+check+node+description collapses across
/// inputs (one fault, many triggering inputs).
[[nodiscard]] std::uint64_t fault_key(const FaultReport& report);

/// Renders a fault table (one line per report) for examples and benches.
[[nodiscard]] std::string render_fault_table(const std::vector<FaultReport>& reports);

}  // namespace dice::core
