#include <gtest/gtest.h>

#include <algorithm>

#include "bgp/bugs.hpp"
#include "bgp/sym_update.hpp"
#include "bgp/topology.hpp"
#include "concolic/engine.hpp"
#include "concolic/solver.hpp"
#include "concolic/sym.hpp"
#include "fuzz/bgp_grammar.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace dice::concolic {
namespace {

/// Helper: run `body` under a recording context on `input`, then return
/// (pool, constraints) where constraints require the SAME path.
struct Recorded {
  SymCtx ctx;
  std::vector<Constraint> constraints;

  explicit Recorded(util::Bytes input, const std::function<void()>& body)
      : ctx(std::move(input)) {
    SymScope scope(ctx);
    body();
    for (const BranchRecord& r : ctx.path().records()) {
      constraints.push_back(Constraint{r.cond, r.taken});
    }
  }
};

TEST(SolverTest, HintAlreadySatisfies) {
  Recorded rec({42}, [] { (void)branch(input_byte(0) == SymU8{42}); });
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 42);
  EXPECT_EQ(solver.stats().hint_hits, 1u);
}

TEST(SolverTest, DirectInversionOnEquality) {
  // Record path for input 0 (x != 66), then ask for the flipped branch.
  Recorded rec({0}, [] { (void)branch(input_byte(0) == SymU8{66}); });
  ASSERT_EQ(rec.constraints.size(), 1u);
  rec.constraints[0].require = !rec.constraints[0].require;  // demand x == 66

  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 66);
}

TEST(SolverTest, ExhaustiveTwoBytes) {
  // Constraint couples two bytes: in[0] + in[1] == 99 with in[0] < 10.
  Recorded rec({200, 200}, [] {
    const SymU8 a = input_byte(0);
    const SymU8 b = input_byte(1);
    (void)branch(a + b == SymU8{99});
    (void)branch(a < SymU8{10});
  });
  // Flip both to required-true.
  for (Constraint& c : rec.constraints) c.require = true;

  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  const std::uint8_t a = (*solution)[0];
  const std::uint8_t b = (*solution)[1];
  EXPECT_LT(a, 10);
  EXPECT_EQ(static_cast<std::uint8_t>(a + b), 99);
}

TEST(SolverTest, UnsatisfiableDetectedByExhaustion) {
  Recorded rec({5}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(x < SymU8{10});
    (void)branch(x > SymU8{20});
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;  // x < 10 && x > 20: impossible

  Solver solver;
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  EXPECT_EQ(solver.stats().unsat_or_unknown, 1u);
}

TEST(SolverTest, SearchSolvesMultiByte) {
  // 4 coupled bytes: the 32-bit big-endian word must be < 1000 while each
  // byte participates; exhaustive (<=2 bytes) cannot apply.
  Recorded rec({0xff, 0xff, 0xff, 0xff}, [] {
    const SymU32 word = input_u32(0);
    (void)branch(word < SymU32{1000});
  });
  rec.constraints[0].require = true;

  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  const std::uint32_t word = (static_cast<std::uint32_t>((*solution)[0]) << 24) |
                             (static_cast<std::uint32_t>((*solution)[1]) << 16) |
                             (static_cast<std::uint32_t>((*solution)[2]) << 8) |
                             (*solution)[3];
  EXPECT_LT(word, 1000u);
}

TEST(SolverTest, SolutionPreservesLength) {
  Recorded rec({1, 2, 3, 4, 5}, [] { (void)branch(input_byte(2) == SymU8{77}); });
  rec.constraints[0].require = true;
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ(solution->size(), 5u);
  EXPECT_EQ((*solution)[2], 77);
  // Untouched bytes keep hint values.
  EXPECT_EQ((*solution)[0], 1);
  EXPECT_EQ((*solution)[4], 5);
}

/// Soundness property: whatever the solver returns satisfies ALL
/// constraints under concrete evaluation — across many random systems.
TEST(SolverTest, SoundnessProperty) {
  util::Rng rng(77);
  Solver solver;
  std::size_t solved = 0;
  for (int round = 0; round < 60; ++round) {
    util::Bytes input(6);
    for (auto& b : input) b = rng.byte();
    const std::uint8_t t0 = rng.byte();
    const std::uint8_t t1 = rng.byte();
    const std::uint8_t t2 = static_cast<std::uint8_t>(rng.byte() | 1);

    Recorded rec(input, [&] {
      const SymU8 a = input_byte(0);
      const SymU8 b = input_byte(1);
      const SymU8 c = input_byte(2);
      (void)branch((a ^ SymU8{t0}) < SymU8{t2});
      (void)branch(b == SymU8{t1});
      (void)branch((a + c) > SymU8{t0});
    });
    // Randomly flip required directions.
    for (Constraint& c : rec.constraints) c.require = rng.chance(0.5);

    auto solution = solver.solve(rec.ctx.pool(), rec.constraints, input);
    if (!solution) continue;  // incompleteness is allowed; wrongness is not
    ++solved;
    for (const Constraint& c : rec.constraints) {
      EXPECT_EQ(rec.ctx.pool().eval(c.cond, *solution) != 0, c.require)
          << "solver returned a non-satisfying assignment";
    }
  }
  EXPECT_GT(solved, 20u);  // sanity: the solver is not vacuously incomplete
}

TEST(SolverTest, IntervalPropagationProvesUnsatWithoutSearch) {
  // x < 10 && x > 20 over one byte: interval intersection is empty; the
  // solver must prove unsat with zero enumeration work.
  Recorded rec({5}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(x < SymU8{10});
    (void)branch(x > SymU8{20});
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;
  Solver solver;
  const std::uint64_t evals_before = solver.stats().evaluations;
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  EXPECT_EQ(solver.stats().interval_unsat, 1u);
  // Only the initial check + unsat scan evaluated; no 256-way enumeration.
  EXPECT_LT(solver.stats().evaluations - evals_before, 16u);
}

TEST(SolverTest, IntervalPropagationBoundsEnumeration) {
  // 200 <= x <= 210 && x != 205: feasible; enumeration is clamped to the
  // 11-value interval instead of 256.
  Recorded rec({0}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(x >= SymU8{200});
    (void)branch(x <= SymU8{210});
    (void)branch(x == SymU8{205});
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;
  rec.constraints[2].require = false;
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_GE((*solution)[0], 200);
  EXPECT_LE((*solution)[0], 210);
  EXPECT_NE((*solution)[0], 205);
}

TEST(SolverTest, IntervalHandlesConstantOnLeft) {
  // Recorded as (k < x) when written x > k — both operand orders narrow.
  Recorded rec({0}, [] {
    const SymU8 x = input_byte(0);
    (void)branch(SymU8{250} < x);   // x > 250
    (void)branch(SymU8{254} == x);  // x == 254... taken=false on hint 0
  });
  rec.constraints[0].require = true;
  rec.constraints[1].require = true;
  Solver solver;
  auto solution = solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  ASSERT_TRUE(solution.has_value());
  EXPECT_EQ((*solution)[0], 254);
}

TEST(SolverTest, StatsAccumulate) {
  Recorded rec({1}, [] { (void)branch(input_byte(0) == SymU8{1}); });
  Solver solver;
  (void)solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  (void)solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input());
  EXPECT_EQ(solver.stats().queries, 2u);
  EXPECT_EQ(solver.stats().sat, 2u);
  solver.reset_stats();
  EXPECT_EQ(solver.stats().queries, 0u);
}

/// A memo that records every store, to check what the solver publishes.
class RecordingMemo final : public SolverMemo {
 public:
  bool lookup(std::uint64_t, std::optional<util::Bytes>&) override { return false; }
  void store(std::uint64_t, const std::optional<util::Bytes>& result) override {
    stored.push_back(result);
  }
  std::vector<std::optional<util::Bytes>> stored;
};

/// Evaluations spent on an UNSAT 2-byte negation, (in[0] + in[1]) * 2 == 3
/// (the left side is always even), behind `prefix_len` path constraints
/// over other bytes that hold at the hint.
std::uint64_t unsat_negation_evaluations(std::size_t prefix_len) {
  Recorded rec(util::Bytes(2 + prefix_len, 7), [&] {
    for (std::size_t k = 0; k < prefix_len; ++k) (void)branch(input_byte(2 + k) < SymU8{100});
    (void)branch((input_byte(0) + input_byte(1)) * SymU8{2} == SymU8{3});
  });
  rec.constraints.back().require = true;
  Solver solver;
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  EXPECT_EQ(solver.stats().exhaustive_hits, 0u);
  return solver.stats().evaluations;
}

TEST(SolverTest, EnumerationWorkDoesNotScaleWithPrefixLength) {
  const std::uint64_t bare = unsat_negation_evaluations(0);
  const std::uint64_t prefixed = unsat_negation_evaluations(60);
  EXPECT_GE(bare, 256u * 256u);  // the whole square was enumerated
  // The prefix cannot change under a candidate: it is evaluated once, at
  // the hint, instead of once per enumerated assignment.
  EXPECT_LE(prefixed, bare + 60);
}

/// Values that frequently flip branch predicates — the solver's boundary
/// list, repeated so the reference below is independent of it.
constexpr std::uint8_t kReferenceInteresting[] = {0,   1,   2,   4,   7,   8,   15,
                                                  16,  24,  31,  32,  63,  64,  100,
                                                  127, 128, 192, 200, 254, 255};

/// Brute-force 2-byte enumeration: the boundary-biased pass, then the full
/// square, each candidate checked against the whole conjunction.
std::optional<util::Bytes> reference_two_byte(const ExprPool& pool,
                                              std::span<const Constraint> constraints,
                                              util::Bytes candidate, std::uint32_t i,
                                              std::uint32_t j) {
  const auto all_hold = [&] {
    return std::all_of(constraints.begin(), constraints.end(), [&](const Constraint& c) {
      return (pool.eval(c.cond, candidate) != 0) == c.require;
    });
  };
  for (std::uint8_t vi : kReferenceInteresting) {
    for (std::uint8_t vj : kReferenceInteresting) {
      candidate[i] = vi;
      candidate[j] = vj;
      if (all_hold()) return candidate;
    }
  }
  for (int vi = 0; vi <= 0xff; ++vi) {
    for (int vj = 0; vj <= 0xff; ++vj) {
      candidate[i] = static_cast<std::uint8_t>(vi);
      candidate[j] = static_cast<std::uint8_t>(vj);
      if (all_hold()) return candidate;
    }
  }
  return std::nullopt;
}

TEST(SolverTest, TwoByteModelMatchesBruteForceReference) {
  util::Rng rng(2024);
  std::size_t compared = 0;
  std::size_t sat = 0;
  for (int round = 0; round < 60; ++round) {
    util::Bytes input(6);
    for (auto& b : input) b = rng.byte();
    // Narrow random boxes put the first model on a box edge, often past
    // every boundary value, so the full square decides.
    const auto box_lo = [&] { return static_cast<std::uint8_t>(rng.below(220)); };
    const std::uint8_t lo_a = box_lo();
    const std::uint8_t lo_b = box_lo();
    const std::uint8_t hi_a = static_cast<std::uint8_t>(lo_a + rng.below(30));
    const std::uint8_t hi_b = static_cast<std::uint8_t>(lo_b + rng.below(30));
    const std::uint8_t sum = static_cast<std::uint8_t>(lo_a + lo_b + rng.below(3));
    const std::uint8_t avoid = static_cast<std::uint8_t>(lo_b + rng.below(2));
    const std::uint8_t mix = static_cast<std::uint8_t>((input[0] ^ input[2]) + 1);
    if (static_cast<std::uint8_t>(input[0] + input[1]) == sum) continue;
    Recorded rec(input, [&] {
      const SymU8 a = input_byte(0);
      const SymU8 b = input_byte(1);
      // Prefix over other bytes, one of them coupled to an enumerated byte.
      (void)branch(input_byte(3) < SymU8{200});
      (void)branch((a ^ input_byte(2)) == SymU8{mix});
      (void)branch(input_byte(4) == SymU8{input[4]});
      // The negation couples both enumerated bytes; the boxes bound them.
      (void)branch(a + b == SymU8{sum});
      (void)branch(a >= SymU8{lo_a});
      (void)branch(a <= SymU8{hi_a});
      (void)branch(b >= SymU8{lo_b});
      (void)branch(b <= SymU8{hi_b});
      (void)branch(b == SymU8{avoid});
    });
    ASSERT_EQ(rec.constraints.size(), 9u);
    for (std::size_t k = 3; k < 8; ++k) rec.constraints[k].require = true;
    rec.constraints[8].require = false;

    // Only constraints over bytes 0 and 1 fail at the hint, so the answer
    // comes from interval propagation or the 2-byte enumeration.
    Solver solver;
    const auto solution = solver.solve(rec.ctx.pool(), rec.constraints, input);
    EXPECT_EQ(solution, reference_two_byte(rec.ctx.pool(), rec.constraints, input, 0, 1))
        << "round " << round;
    ++compared;
    if (solution) ++sat;
  }
  EXPECT_GT(compared, 50u);
  EXPECT_GT(sat, 10u);
}

TEST(SolverTest, FailureBeyondTheHintIsNeverMemoized) {
  // in[5] == 9 cannot be met by a 2-byte hint (the byte reads as zero) but
  // could by a longer one: nullopt, and nothing is published to the memo.
  Recorded alone({1, 2}, [] { (void)branch(input_byte(5) == SymU8{9}); });
  alone.constraints[0].require = true;
  // The same failure beside a failing constraint the solver can work on:
  // enumeration over byte 0 cannot repair the byte-5 conjunct.
  Recorded beside({1, 2}, [] {
    (void)branch(input_byte(0) + input_byte(1) == SymU8{40});
    (void)branch(input_byte(5) == SymU8{9});
  });
  for (Constraint& c : beside.constraints) c.require = true;

  for (const Recorded* rec : {&alone, &beside}) {
    RecordingMemo memo;
    Solver solver;
    solver.set_memo(&memo);
    EXPECT_FALSE(solver.solve(rec->ctx.pool(), rec->constraints, rec->ctx.input()).has_value());
    EXPECT_TRUE(memo.stored.empty());
    EXPECT_EQ(solver.stats().cache_stores, 0u);
  }
}

/// Three coupled bytes whose XOR must be both 5 and 6: UNSAT, but no
/// interval or enumeration can prove it.
Recorded three_byte_contradiction() {
  Recorded rec({0, 0, 0}, [] {
    const SymU8 x = input_byte(0) ^ input_byte(1) ^ input_byte(2);
    (void)branch(x == SymU8{5});
    (void)branch(x == SymU8{6});
  });
  for (Constraint& c : rec.constraints) c.require = true;
  return rec;
}

TEST(SolverTest, ThreeInvolvedBytesGoToSearchAndNeverMemoizeUnsat) {
  const Recorded rec = three_byte_contradiction();
  RecordingMemo memo;
  SolverOptions options;
  Solver solver(options);
  solver.set_memo(&memo);
  EXPECT_FALSE(solver.solve(rec.ctx.pool(), rec.constraints, rec.ctx.input()).has_value());
  // A search give-up is not a proof: the memo must not learn UNSAT.
  EXPECT_TRUE(memo.stored.empty());
  EXPECT_GE(solver.stats().evaluations, options.search_budget);  // the search ran

  // A satisfiable 3-byte query is answered by search, not enumeration.
  Recorded sat({0, 0, 0}, [] {
    (void)branch((input_byte(0) ^ input_byte(1) ^ input_byte(2)) == SymU8{5});
  });
  sat.constraints[0].require = true;
  Solver fresh;
  ASSERT_TRUE(fresh.solve(sat.ctx.pool(), sat.constraints, sat.ctx.input()).has_value());
  EXPECT_EQ(fresh.stats().search_hits, 1u);
  EXPECT_EQ(fresh.stats().exhaustive_hits, 0u);
}

TEST(SolverTest, HopelessSearchKeepsTheRngStream) {
  // A search that cannot succeed because a constraint over a byte beyond
  // the hint fails skips its evaluations but must make the same draws as a
  // full search over as many bytes, so the next query sees the same stream.
  Recorded hopeless({0, 0, 0}, [] {
    (void)branch((input_byte(0) ^ input_byte(1) ^ input_byte(2)) == SymU8{5});
    (void)branch(input_byte(7) == SymU8{9});
  });
  for (Constraint& c : hopeless.constraints) c.require = true;
  const Recorded contradiction = three_byte_contradiction();
  // Many models, reached by random draws: the answer follows the stream.
  Recorded next({0, 0, 0}, [] {
    (void)branch((input_byte(0) ^ input_byte(1) ^ input_byte(2)) == SymU8{0x5a});
  });
  next.constraints[0].require = true;

  Solver a;
  Solver b;
  EXPECT_FALSE(
      a.solve(hopeless.ctx.pool(), hopeless.constraints, hopeless.ctx.input()).has_value());
  EXPECT_FALSE(b.solve(contradiction.ctx.pool(), contradiction.constraints,
                       contradiction.ctx.input())
                   .has_value());
  EXPECT_LT(a.stats().evaluations, b.stats().evaluations);
  const auto after_a = a.solve(next.ctx.pool(), next.constraints, next.ctx.input());
  const auto after_b = b.solve(next.ctx.pool(), next.constraints, next.ctx.input());
  ASSERT_TRUE(after_a.has_value());
  EXPECT_EQ(after_a, after_b);
  Solver fresh;
  EXPECT_NE(fresh.solve(next.ctx.pool(), next.constraints, next.ctx.input()), after_a);
}

/// Pins the solver's answers end to end: the concolic engine over the
/// instrumented UPDATE handler of a tier-2 router with all three parser
/// bugs (the bench_ablation set-up), grammar seeds, 200 executions, no memo.
/// The hash covers the ordered corpus bytes and every SolverStats counter
/// that describes *answers* — `evaluations` is deliberately left out, since
/// it measures work and is meant to fall when the solver gets cheaper.
TEST(SolverPinTest, EngineCorpusAndAnswersArePinned) {
  bgp::SystemBlueprint bp = bgp::make_internet({2, 3, 4});
  bgp::RouterConfig config = bp.configs[3];
  config.bug_mask = bgp::bugs::kCommunityLength | bgp::bugs::kAsPathZeroSegment |
                    bgp::bugs::kMedOverflow;
  bgp::SymHandlerEnv env;
  env.config = &config;
  env.neighbor_index = 0;

  EngineOptions options;
  options.max_executions = 200;
  options.max_branches_per_exec = 64;
  options.solver.search_budget = 2500;
  options.solver.restarts = 2;
  ConcolicEngine engine([&env](SymCtx& ctx) { (void)bgp::sym_handle_update(ctx, env); },
                        options);
  util::Rng rng(11);
  const fuzz::BgpUpdateGrammar grammar(fuzz::BgpGrammarSeeds::from_config(config),
                                       /*strict=*/true);
  for (int i = 0; i < 6; ++i) engine.add_seed(grammar.generate_body(rng));

  const RunResult result = engine.run();
  std::uint64_t h = util::kFnvOffset;
  for (const util::Bytes& input : result.corpus) {
    h = util::hash_mix(h, input.size());
    h = util::fnv1a(input, h);
  }
  const SolverStats& s = result.stats.solver;
  for (std::uint64_t v : {s.queries, s.sat, s.unsat_or_unknown, s.hint_hits, s.inversion_hits,
                          s.exhaustive_hits, s.search_hits, s.interval_unsat}) {
    h = util::hash_mix(h, v);
  }
  const std::string pin =
      util::format("%016llx", static_cast<unsigned long long>(util::hash_finalize(h)));
  EXPECT_EQ(result.corpus.size(), 200u);
  EXPECT_EQ(pin, "7599b08827a115a5")
      << "queries=" << s.queries << " sat=" << s.sat << " unsat=" << s.unsat_or_unknown
      << " hint=" << s.hint_hits << " inversion=" << s.inversion_hits
      << " exhaustive=" << s.exhaustive_hits << " search=" << s.search_hits
      << " interval_unsat=" << s.interval_unsat << " evaluations=" << s.evaluations;
}

}  // namespace
}  // namespace dice::concolic
