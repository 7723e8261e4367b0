// Constraint solver for path conditions over symbolic input bytes.
//
// The solver answers: "find an input assignment under which every constraint
// in a conjunction evaluates to its required truth value", starting from a
// hint (the input of the execution whose path is being mutated — concolic
// solving is always a perturbation of a known-good assignment).
//
// Strategy, cheapest first:
//   1. verify the hint (the negated branch may already hold);
//   2. direct inversion for single-byte equalities/inequalities;
//   3. slicing: the bytes the failing constraints read are the only ones a
//      candidate changes, so constraints over none of them (fixed ones)
//      keep their hint value and distance and are evaluated once per query,
//      and a fixed constraint false at the hint fails every candidate
//      (KLEE-style constraint independence);
//   4. interval propagation: single-byte comparisons against constants give
//      each byte a feasible box; an empty box proves UNSAT outright;
//   5. exhaustive enumeration when <=2 input bytes are involved, over each
//      byte's box only, in a fixed order (the first model is the same as
//      over the full square);
//   6. branch-distance-guided stochastic local search (search-based testing
//      style) over the involved bytes, with random restarts.
// Every candidate is verified by concrete evaluation of the live slice
// before being returned (every other constraint holds at the hint), so the
// solver is sound by construction (it can only be incomplete).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "concolic/expr.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace dice::concolic {

/// A conjunct: `cond` must evaluate to `require`.
struct Constraint {
  ExprRef cond = kNullExpr;
  bool require = true;
};

struct SolverOptions {
  std::uint32_t search_budget = 6000;  ///< local-search candidate evaluations
  std::uint32_t restarts = 4;          ///< random restarts for local search
  std::uint64_t seed = 0x50151ca5;     ///< deterministic search stream
  // Stage toggles (ablation knobs; production keeps all enabled).
  bool enable_inversion = true;
  bool enable_exhaustive = true;
  bool enable_search = true;
};

struct SolverStats {
  std::uint64_t queries = 0;
  std::uint64_t sat = 0;
  std::uint64_t unsat_or_unknown = 0;
  std::uint64_t hint_hits = 0;        ///< solved by the hint itself
  std::uint64_t inversion_hits = 0;   ///< solved by direct inversion
  std::uint64_t exhaustive_hits = 0;  ///< solved by enumeration
  std::uint64_t search_hits = 0;      ///< solved by local search
  std::uint64_t evaluations = 0;      ///< candidate evaluations performed
  std::uint64_t interval_unsat = 0;   ///< proven unsat by interval propagation
  std::uint64_t cache_hits = 0;       ///< answered by the attached SolverMemo
  std::uint64_t cache_stores = 0;     ///< results published to the memo
};

/// Memoization hook for solver queries (implemented by explore::SolverCache).
/// Keys are structural hashes of the constraint conjunction, independent of
/// the ExprPool instance that built the expressions — two clones negating
/// the same branch in different episodes produce the same key. Stored
/// models were concretely verified against exactly those constraints, so a
/// hit is sound for any hint; UNSAT is only stored when proven (interval
/// contradiction or complete enumeration), never for search give-ups.
class SolverMemo {
 public:
  virtual ~SolverMemo() = default;
  /// Returns true when `key` is known; fills `result` (nullopt = proven UNSAT).
  [[nodiscard]] virtual bool lookup(std::uint64_t key, std::optional<util::Bytes>& result) = 0;
  virtual void store(std::uint64_t key, const std::optional<util::Bytes>& result) = 0;
};

/// Structural (pool-independent) hash of a constraint conjunction — the
/// SolverMemo key. Exposed for cache tests and external key computation.
[[nodiscard]] std::uint64_t constraints_key(const ExprPool& pool,
                                            std::span<const Constraint> constraints);

/// Per-byte feasible interval derived from single-byte comparisons against
/// constants. Each derived interval is a *necessary* condition of the
/// conjunction, so an empty intersection proves unsatisfiability outright,
/// and exhaustive enumeration can restrict itself to [lo, hi].
struct ByteInterval {
  std::uint32_t lo = 0;
  std::uint32_t hi = 255;
  [[nodiscard]] bool empty() const noexcept { return lo > hi; }
  [[nodiscard]] bool contains(std::uint32_t v) const noexcept { return lo <= v && v <= hi; }
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options), rng_(options.seed) {}

  /// Finds an assignment satisfying all constraints, or nullopt. Without a
  /// memo the result always has the same size as `hint`; with one attached,
  /// a hit may return a verified model cached from a different hint (and so
  /// of a different length).
  [[nodiscard]] std::optional<util::Bytes> solve(const ExprPool& pool,
                                                 std::span<const Constraint> constraints,
                                                 const util::Bytes& hint);

  /// Attaches (or detaches, with nullptr) a query memo. Not owned.
  void set_memo(SolverMemo* memo) noexcept { memo_ = memo; }

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = SolverStats{}; }

 private:
  struct QueryPlan;  // per-query constraint facts (solver.cpp)

  /// The uncached pipeline. `definitive` is set when a nullopt result is a
  /// proof of unsatisfiability (safe to memoize) rather than a give-up.
  [[nodiscard]] std::optional<util::Bytes> solve_impl(const ExprPool& pool,
                                                      std::span<const Constraint> constraints,
                                                      const util::Bytes& hint,
                                                      bool& definitive);
  /// Evaluates every constraint once at the hint and collects its bytes.
  [[nodiscard]] QueryPlan plan_query(const ExprPool& pool,
                                     std::span<const Constraint> constraints,
                                     const util::Bytes& hint);
  /// True when every constraint in `slice` (indices into the plan) holds at
  /// `candidate`. Callers pass the constraints reading the bytes the
  /// candidate changed; every other one holds at the hint.
  [[nodiscard]] bool satisfied(const ExprPool& pool, const QueryPlan& plan,
                               std::span<const std::uint32_t> slice,
                               const util::Bytes& candidate);
  /// Branch distance of one constraint: 0 iff satisfied; smaller is closer.
  [[nodiscard]] double distance(const ExprPool& pool, const Constraint& c,
                                const util::Bytes& candidate);
  /// Sum of log1p(distance) over the conjunction: recomputes the live
  /// constraints' entries of `terms` (fixed entries are precomputed).
  [[nodiscard]] double total_distance(const ExprPool& pool, const QueryPlan& plan,
                                      std::vector<double>& terms,
                                      const util::Bytes& candidate);
  [[nodiscard]] std::optional<util::Bytes> try_inversion(const ExprPool& pool,
                                                         const QueryPlan& plan,
                                                         const util::Bytes& hint);
  [[nodiscard]] std::optional<util::Bytes> try_exhaustive(const ExprPool& pool,
                                                          const QueryPlan& plan,
                                                          const util::Bytes& hint);
  [[nodiscard]] std::optional<util::Bytes> try_search(const ExprPool& pool,
                                                      const QueryPlan& plan,
                                                      const util::Bytes& hint);
  /// Derives per-byte intervals from single-byte constraints; returns
  /// false when some byte's interval is empty (conjunction unsat).
  [[nodiscard]] bool propagate_intervals(
      const ExprPool& pool, std::span<const Constraint> constraints,
      std::unordered_map<std::uint32_t, ByteInterval>& intervals) const;

  SolverOptions options_;
  util::Rng rng_;
  SolverStats stats_;
  SolverMemo* memo_ = nullptr;
};

}  // namespace dice::concolic
