#include "concolic/solver.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/hash.hpp"

namespace dice::concolic {

namespace {

/// Queries involving at most this many bytes are enumerated (256^k
/// assignments); wider ones go to local search.
constexpr std::size_t kMaxExhaustiveBytes = 2;

/// Values that frequently flip branch predicates (boundary values).
constexpr std::uint8_t kInterestingBytes[] = {0, 1, 2, 4, 7, 8, 15, 16, 24, 31, 32,
                                              63, 64, 100, 127, 128, 192, 200, 254, 255};

/// Recognizes a (possibly zero-extended/truncated) bare input byte.
[[nodiscard]] std::optional<std::uint32_t> as_bare_sym_byte(const ExprPool& pool,
                                                            ExprRef ref) {
  const ExprNode* cur = &pool.node(ref);
  while (cur->op == Op::kZext || cur->op == Op::kTrunc) cur = &pool.node(cur->a);
  if (cur->op == Op::kSym) return static_cast<std::uint32_t>(cur->value);
  return std::nullopt;
}

[[nodiscard]] std::optional<std::uint64_t> as_constant(const ExprPool& pool, ExprRef ref) {
  const ExprNode& node = pool.node(ref);
  if (node.op == Op::kConst) return node.value;
  return std::nullopt;
}

/// Pool-independent structural hash of an expression DAG. `memo` collapses
/// shared subtrees so the walk is linear in distinct nodes.
std::uint64_t structural_hash(const ExprPool& pool, ExprRef ref,
                              std::unordered_map<ExprRef, std::uint64_t>& memo) {
  if (ref == kNullExpr) return 0x9e3779b97f4a7c15ULL;
  if (auto it = memo.find(ref); it != memo.end()) return it->second;
  const ExprNode& node = pool.node(ref);
  std::uint64_t h = util::hash_mix(util::kFnvOffset, static_cast<std::uint64_t>(node.op));
  h = util::hash_mix(h, node.width);
  // `value` is semantic for constants, input-byte leaves and extract
  // offsets; for kIte it is a third child reference and must be hashed
  // structurally; for everything else it is unused.
  if (node.op == Op::kConst || node.op == Op::kSym || node.op == Op::kExtract) {
    h = util::hash_mix(h, node.value);
  }
  h = util::hash_mix(h, structural_hash(pool, node.a, memo));
  h = util::hash_mix(h, structural_hash(pool, node.b, memo));
  if (node.op == Op::kIte) {
    h = util::hash_mix(h, structural_hash(pool, static_cast<ExprRef>(node.value), memo));
  }
  memo.emplace(ref, h);
  return h;
}

}  // namespace

std::uint64_t constraints_key(const ExprPool& pool, std::span<const Constraint> constraints) {
  std::unordered_map<ExprRef, std::uint64_t> memo;
  std::uint64_t h = util::kFnvOffset;
  for (const Constraint& c : constraints) {
    h = util::hash_mix(h, structural_hash(pool, c.cond, memo));
    h = util::hash_mix(h, c.require ? 1 : 0);
  }
  return util::hash_finalize(h);
}

bool Solver::propagate_intervals(
    const ExprPool& pool, std::span<const Constraint> constraints,
    std::unordered_map<std::uint32_t, ByteInterval>& intervals) const {
  const auto narrow_lo = [&](std::uint32_t byte, std::uint32_t lo) {
    ByteInterval& iv = intervals[byte];
    iv.lo = std::max(iv.lo, lo);
    return !iv.empty();
  };
  const auto narrow_hi = [&](std::uint32_t byte, std::uint32_t hi) {
    ByteInterval& iv = intervals[byte];
    iv.hi = std::min(iv.hi, hi);
    return !iv.empty();
  };

  for (const Constraint& c : constraints) {
    const ExprNode& node = pool.node(c.cond);
    if (node.op != Op::kEq && node.op != Op::kNe && node.op != Op::kUlt &&
        node.op != Op::kUle) {
      continue;  // only flat comparisons feed the interval domain
    }
    // Normalize to (sym CMP const) or (const CMP sym).
    auto sym_lhs = as_bare_sym_byte(pool, node.a);
    auto cst_rhs = as_constant(pool, node.b);
    auto cst_lhs = as_constant(pool, node.a);
    auto sym_rhs = as_bare_sym_byte(pool, node.b);

    if (sym_lhs && cst_rhs) {
      const std::uint32_t byte = *sym_lhs;
      const std::uint64_t k = *cst_rhs;
      switch (node.op) {
        case Op::kEq:
          if (c.require) {
            if (k > 0xff) return false;  // byte can never equal k
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          // !require (x != k): not representable as one interval; skip.
          break;
        case Op::kNe:
          if (!c.require) {  // x == k required
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          break;
        case Op::kUlt:  // x < k
          if (c.require) {
            if (k == 0) return false;
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 256) - 1))) {
              return false;
            }
          } else {  // x >= k
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k))) return false;
          }
          break;
        case Op::kUle:  // x <= k
          if (c.require) {
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 255)))) {
              return false;
            }
          } else {  // x > k
            if (k >= 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k + 1))) return false;
          }
          break;
        default:
          break;
      }
    } else if (cst_lhs && sym_rhs) {
      const std::uint32_t byte = *sym_rhs;
      const std::uint64_t k = *cst_lhs;
      switch (node.op) {
        case Op::kEq:
          if (c.require) {
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          break;
        case Op::kNe:
          if (!c.require) {
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k)) ||
                !narrow_hi(byte, static_cast<std::uint32_t>(k))) {
              return false;
            }
          }
          break;
        case Op::kUlt:  // k < x
          if (c.require) {
            if (k >= 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k + 1))) return false;
          } else {  // k >= x, i.e. x <= k
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 255)))) {
              return false;
            }
          }
          break;
        case Op::kUle:  // k <= x
          if (c.require) {
            if (k > 0xff) return false;
            if (!narrow_lo(byte, static_cast<std::uint32_t>(k))) return false;
          } else {  // k > x, i.e. x < k
            if (k == 0) return false;
            if (!narrow_hi(byte, static_cast<std::uint32_t>(std::min<std::uint64_t>(k, 256) - 1))) {
              return false;
            }
          }
          break;
        default:
          break;
      }
    }
  }
  return true;
}

std::optional<util::Bytes> Solver::solve(const ExprPool& pool,
                                         std::span<const Constraint> constraints,
                                         const util::Bytes& hint) {
  ++stats_.queries;
  if (memo_ == nullptr) {
    bool definitive = false;
    return solve_impl(pool, constraints, hint, definitive);
  }
  const std::uint64_t key = constraints_key(pool, constraints);
  std::optional<util::Bytes> cached;
  if (memo_->lookup(key, cached)) {
    ++stats_.cache_hits;
    if (cached) {
      ++stats_.sat;
    } else {
      ++stats_.unsat_or_unknown;
    }
    return cached;
  }
  bool definitive = false;
  std::optional<util::Bytes> result = solve_impl(pool, constraints, hint, definitive);
  if (result || definitive) {
    memo_->store(key, result);
    ++stats_.cache_stores;
  }
  return result;
}

/// Everything one query needs to know about its constraints, computed once
/// per solve_impl call. A candidate only ever differs from the hint in the
/// involved bytes, so a constraint over none of them (a *fixed* one) keeps
/// its hint truth value and branch distance under every candidate — KLEE's
/// constraint independence. Candidates re-evaluate only the live slice.
struct Solver::QueryPlan {
  std::span<const Constraint> constraints;
  std::vector<std::vector<std::uint32_t>> syms;  ///< per constraint, sorted
  std::vector<bool> holds;                       ///< per constraint, at the hint
  std::size_t failing = 0;                       ///< constraints false at the hint
  /// Sorted bytes the failing constraints read, minus those at or beyond
  /// the hint's end (they read as zero and cannot be assigned).
  std::vector<std::uint32_t> involved;
  bool truncated = false;  ///< some failing constraint read past the hint
  std::unordered_map<std::uint32_t, ByteInterval> intervals;
  std::vector<std::uint32_t> live;  ///< constraints reading an involved byte, in order
  bool fixed_false = false;  ///< a constraint outside `live` fails: no candidate helps

  /// Indices, in order, of the constraints reading any of the sorted `bytes`.
  [[nodiscard]] std::vector<std::uint32_t> slice(std::span<const std::uint32_t> bytes) const {
    std::vector<std::uint32_t> out;
    for (std::uint32_t k = 0; k < syms.size(); ++k) {
      const auto reads = [&](std::uint32_t b) {
        return std::binary_search(bytes.begin(), bytes.end(), b);
      };
      if (std::any_of(syms[k].begin(), syms[k].end(), reads)) out.push_back(k);
    }
    return out;
  }

  /// The interval-feasible values of `byte` (necessary for any model).
  [[nodiscard]] ByteInterval box(std::uint32_t byte) const {
    const auto it = intervals.find(byte);
    return it == intervals.end() ? ByteInterval{} : it->second;
  }
};

Solver::QueryPlan Solver::plan_query(const ExprPool& pool,
                                     std::span<const Constraint> constraints,
                                     const util::Bytes& hint) {
  QueryPlan plan;
  plan.constraints = constraints;
  plan.syms.reserve(constraints.size());
  plan.holds.reserve(constraints.size());
  std::unordered_set<std::uint32_t> scratch;
  for (const Constraint& c : constraints) {
    scratch.clear();
    pool.collect_syms(c.cond, scratch);
    std::vector<std::uint32_t>& syms = plan.syms.emplace_back(scratch.begin(), scratch.end());
    std::sort(syms.begin(), syms.end());
    ++stats_.evaluations;
    const bool holds = (pool.eval(c.cond, hint) != 0) == c.require;
    plan.holds.push_back(holds);
    if (!holds) ++plan.failing;
  }
  return plan;
}

std::optional<util::Bytes> Solver::solve_impl(const ExprPool& pool,
                                              std::span<const Constraint> constraints,
                                              const util::Bytes& hint, bool& definitive) {
  definitive = false;
  QueryPlan plan = plan_query(pool, constraints, hint);

  if (plan.failing == 0) {
    ++stats_.sat;
    ++stats_.hint_hits;
    return hint;
  }

  if (options_.enable_inversion) {
    if (auto direct = try_inversion(pool, plan, hint)) {
      ++stats_.sat;
      ++stats_.inversion_hits;
      return direct;
    }
  }

  // Only the bytes the *unsatisfied* constraints depend on need to change
  // (the rest already satisfy their conjuncts, though mutations may break
  // them — the live slice re-checks exactly those).
  for (std::size_t k = 0; k < constraints.size(); ++k) {
    if (!plan.holds[k]) plan.involved.insert(plan.involved.end(), plan.syms[k].begin(),
                                             plan.syms[k].end());
  }
  std::sort(plan.involved.begin(), plan.involved.end());
  plan.involved.erase(std::unique(plan.involved.begin(), plan.involved.end()),
                      plan.involved.end());
  // Bytes beyond the hint length read as zero and cannot be assigned. A
  // longer hint could still reach them, so length-truncated failures are
  // never definitive (memoizable) UNSAT proofs.
  const std::size_t involved_before_truncation = plan.involved.size();
  std::erase_if(plan.involved, [&](std::uint32_t i) { return i >= hint.size(); });
  plan.truncated = plan.involved.size() != involved_before_truncation;
  if (plan.involved.empty()) {
    ++stats_.unsat_or_unknown;
    return std::nullopt;
  }

  // Interval pre-pass: each derived bound is a necessary condition, so an
  // empty intersection proves the conjunction unsatisfiable without any
  // candidate evaluation — for every assignment, of any length.
  if (!propagate_intervals(pool, constraints, plan.intervals)) {
    ++stats_.interval_unsat;
    ++stats_.unsat_or_unknown;
    definitive = true;
    return std::nullopt;
  }

  plan.live = plan.slice(plan.involved);
  const auto live_failing = std::count_if(plan.live.begin(), plan.live.end(),
                                          [&](std::uint32_t k) { return !plan.holds[k]; });
  plan.fixed_false = static_cast<std::size_t>(live_failing) != plan.failing;

  if (options_.enable_exhaustive && plan.involved.size() <= kMaxExhaustiveBytes) {
    if (auto found = try_exhaustive(pool, plan, hint)) {
      ++stats_.sat;
      ++stats_.exhaustive_hits;
      return found;
    }
    ++stats_.unsat_or_unknown;
    // Enumeration varied only the failing constraints' bytes, pinning every
    // other byte to this hint's value. That is a proof of unsatisfiability
    // (memoizable across hints) only when the *whole* conjunction depends
    // on nothing but the enumerated bytes — a currently-satisfied
    // constraint over an un-enumerated byte could flip under a different
    // assignment and open a solution this enumeration never visited.
    if (!plan.truncated) {
      const auto enumerated = [&](std::uint32_t sym) {
        return std::binary_search(plan.involved.begin(), plan.involved.end(), sym);
      };
      definitive = std::all_of(plan.syms.begin(), plan.syms.end(), [&](const auto& syms) {
        return std::all_of(syms.begin(), syms.end(), enumerated);
      });
    }
    return std::nullopt;
  }

  if (options_.enable_search) {
    if (auto found = try_search(pool, plan, hint)) {
      ++stats_.sat;
      ++stats_.search_hits;
      return found;
    }
  }
  ++stats_.unsat_or_unknown;
  return std::nullopt;
}

bool Solver::satisfied(const ExprPool& pool, const QueryPlan& plan,
                       std::span<const std::uint32_t> slice, const util::Bytes& candidate) {
  for (std::uint32_t k : slice) {
    const Constraint& c = plan.constraints[k];
    ++stats_.evaluations;
    if ((pool.eval(c.cond, candidate) != 0) != c.require) return false;
  }
  return true;
}

double Solver::distance(const ExprPool& pool, const Constraint& c,
                        const util::Bytes& candidate) {
  ++stats_.evaluations;
  const ExprNode& n = pool.node(c.cond);
  const auto eval_children = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
    return {pool.eval(n.a, candidate), pool.eval(n.b, candidate)};
  };
  // Classic branch-distance metric from search-based software testing.
  switch (n.op) {
    case Op::kEq: {
      const auto [a, b] = eval_children();
      const double diff = a > b ? static_cast<double>(a - b) : static_cast<double>(b - a);
      return c.require ? diff : (a == b ? 1.0 : 0.0);
    }
    case Op::kNe: {
      const auto [a, b] = eval_children();
      const double diff = a > b ? static_cast<double>(a - b) : static_cast<double>(b - a);
      return c.require ? (a != b ? 0.0 : 1.0) : diff;
    }
    case Op::kUlt: {
      const auto [a, b] = eval_children();
      if (c.require) return a < b ? 0.0 : static_cast<double>(a - b) + 1.0;
      return a >= b ? 0.0 : static_cast<double>(b - a);
    }
    case Op::kUle: {
      const auto [a, b] = eval_children();
      if (c.require) return a <= b ? 0.0 : static_cast<double>(a - b);
      return a > b ? 0.0 : static_cast<double>(b - a) + 1.0;
    }
    case Op::kBoolAnd: {
      const Constraint ca{n.a, true};
      const Constraint cb{n.b, true};
      if (c.require) return distance(pool, ca, candidate) + distance(pool, cb, candidate);
      return std::min(distance(pool, Constraint{n.a, false}, candidate),
                      distance(pool, Constraint{n.b, false}, candidate));
    }
    case Op::kBoolOr: {
      if (c.require) {
        return std::min(distance(pool, Constraint{n.a, true}, candidate),
                        distance(pool, Constraint{n.b, true}, candidate));
      }
      return distance(pool, Constraint{n.a, false}, candidate) +
             distance(pool, Constraint{n.b, false}, candidate);
    }
    case Op::kBoolNot:
      return distance(pool, Constraint{n.a, !c.require}, candidate);
    default: {
      const bool holds = (pool.eval(c.cond, candidate) != 0) == c.require;
      return holds ? 0.0 : 1.0;
    }
  }
}

double Solver::total_distance(const ExprPool& pool, const QueryPlan& plan,
                              std::vector<double>& terms, const util::Bytes& candidate) {
  for (std::uint32_t k : plan.live) {
    // log1p keeps one huge conjunct from drowning progress on the others.
    terms[k] = std::log1p(distance(pool, plan.constraints[k], candidate));
  }
  // Summed in constraint order, fixed terms included, so the total is the
  // same double a whole-conjunction walk would produce.
  double total = 0.0;
  for (double term : terms) total += term;
  return total;
}

std::optional<util::Bytes> Solver::try_inversion(const ExprPool& pool, const QueryPlan& plan,
                                                 const util::Bytes& hint) {
  // Fast path: exactly one failing constraint of shape byte-expr ⊕ const
  // where the byte expression is a bare (possibly zero-extended) input byte.
  if (plan.failing != 1) return std::nullopt;
  const auto failing_at = std::find(plan.holds.begin(), plan.holds.end(), false);
  const Constraint& failing = plan.constraints[static_cast<std::size_t>(
      std::distance(plan.holds.begin(), failing_at))];

  const ExprNode& n = pool.node(failing.cond);
  if (n.op != Op::kEq && n.op != Op::kNe) return std::nullopt;

  std::optional<std::uint32_t> sym = as_bare_sym_byte(pool, n.a);
  std::optional<std::uint64_t> cst = as_constant(pool, n.b);
  if (!sym || !cst) {
    sym = as_bare_sym_byte(pool, n.b);
    cst = as_constant(pool, n.a);
  }
  if (!sym || !cst || *sym >= hint.size() || *cst > 0xff) return std::nullopt;

  util::Bytes candidate = hint;
  const bool want_equal = (n.op == Op::kEq) == failing.require;
  if (want_equal) {
    candidate[*sym] = static_cast<std::uint8_t>(*cst);
  } else {
    candidate[*sym] = static_cast<std::uint8_t>((*cst + 1) & 0xff);
  }
  // Every other constraint holds at the hint; only those reading the
  // rewritten byte can change their truth value.
  const std::uint32_t changed[] = {*sym};
  if (satisfied(pool, plan, plan.slice(changed), candidate)) return candidate;
  return std::nullopt;
}

std::optional<util::Bytes> Solver::try_exhaustive(const ExprPool& pool, const QueryPlan& plan,
                                                  const util::Bytes& hint) {
  // Enumeration never touches a fixed constraint's bytes: one that fails
  // at the hint fails for every candidate.
  if (plan.fixed_false) return std::nullopt;
  util::Bytes candidate = hint;
  const std::uint32_t i = plan.involved[0];
  // Values outside a byte's interval fail some constraint, so skipping
  // them (in the original order) cannot change the first model found.
  const ByteInterval bi = plan.box(i);
  if (plan.involved.size() == 1) {
    for (std::uint32_t v = bi.lo; v <= bi.hi; ++v) {
      candidate[i] = static_cast<std::uint8_t>(v);
      if (satisfied(pool, plan, plan.live, candidate)) return candidate;
    }
    return std::nullopt;
  }
  // Two bytes: iterate boundary-biased order first, then the full square.
  const std::uint32_t j = plan.involved[1];
  const ByteInterval bj = plan.box(j);
  for (std::uint8_t vi : kInterestingBytes) {
    if (!bi.contains(vi)) continue;
    for (std::uint8_t vj : kInterestingBytes) {
      if (!bj.contains(vj)) continue;
      candidate[i] = vi;
      candidate[j] = vj;
      if (satisfied(pool, plan, plan.live, candidate)) return candidate;
    }
  }
  for (std::uint32_t vi = bi.lo; vi <= bi.hi; ++vi) {
    for (std::uint32_t vj = bj.lo; vj <= bj.hi; ++vj) {
      candidate[i] = static_cast<std::uint8_t>(vi);
      candidate[j] = static_cast<std::uint8_t>(vj);
      if (satisfied(pool, plan, plan.live, candidate)) return candidate;
    }
  }
  return std::nullopt;
}

std::optional<util::Bytes> Solver::try_search(const ExprPool& pool, const QueryPlan& plan,
                                              const util::Bytes& hint) {
  const std::vector<std::uint32_t>& involved = plan.involved;
  // With a fixed constraint false no candidate can succeed, but the search
  // still makes every draw a full run makes: later queries on this solver
  // see the same RNG stream either way.
  const bool hopeless = plan.fixed_false;
  // Constraints outside the live slice keep their hint distance under every
  // candidate; total_distance overwrites the live entries.
  std::vector<double> terms;
  terms.reserve(plan.constraints.size());
  for (const Constraint& c : plan.constraints) {
    terms.push_back(std::log1p(distance(pool, c, hint)));
  }
  const std::uint32_t per_restart = options_.search_budget / std::max(1U, options_.restarts);
  util::Bytes candidate;
  for (std::uint32_t restart = 0; restart < options_.restarts; ++restart) {
    util::Bytes current = hint;
    if (restart > 0) {
      // Later restarts scramble the involved bytes to escape local minima.
      for (std::uint32_t i : involved) current[i] = rng_.byte();
    }
    double best = 0.0;
    if (!hopeless) {
      best = total_distance(pool, plan, terms, current);
      if (best == 0.0 && satisfied(pool, plan, plan.live, current)) return current;
    }

    for (std::uint32_t step = 0; step < per_restart; ++step) {
      candidate = current;
      const std::uint32_t idx = involved[rng_.below(involved.size())];
      switch (rng_.below(4)) {
        case 0:
          candidate[idx] = kInterestingBytes[rng_.below(std::size(kInterestingBytes))];
          break;
        case 1:
          candidate[idx] = rng_.byte();
          break;
        case 2: {
          const int delta = static_cast<int>(rng_.range(1, 16)) * (rng_.chance(0.5) ? 1 : -1);
          candidate[idx] = static_cast<std::uint8_t>(candidate[idx] + delta);
          break;
        }
        default: {
          // Occasionally mutate a second byte too (coupled constraints).
          const std::uint32_t idx2 = involved[rng_.below(involved.size())];
          candidate[idx] = rng_.byte();
          candidate[idx2] = rng_.byte();
          break;
        }
      }
      if (hopeless) continue;
      const double d = total_distance(pool, plan, terms, candidate);
      if (d <= best) {  // accept sideways moves: plateaus are common
        best = d;
        current.swap(candidate);
        if (best == 0.0 && satisfied(pool, plan, plan.live, current)) return current;
      }
    }
  }
  return std::nullopt;
}

}  // namespace dice::concolic
