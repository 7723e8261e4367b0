// Unit tests for the input-subjection strategies.
#include <gtest/gtest.h>

#include "bgp/codec.hpp"
#include "dice/inputs.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::core {
namespace {

using bgp::make_internet;
using bgp::make_line;

class InputsTest : public ::testing::Test {
 protected:
  InputsTest() : system_(make_internet({2, 3, 4})) {
    system_.start();
    EXPECT_TRUE(system_.converge());
  }
  System system_;
};

TEST_F(InputsTest, GrammarStrategyProducesRequestedBatch) {
  GrammarStrategy strategy(/*corruption_rate=*/0.0);
  strategy.on_episode(system_, /*explorer=*/3);
  const auto batch = strategy.next_batch(25);
  EXPECT_EQ(batch.size(), 25u);
  // Bodies wrap into decodable UPDATE messages most of the time.
  std::size_t valid = 0;
  for (const auto& body : batch) {
    if (bgp::decode(bgp::wrap_update_body(body)).ok()) ++valid;
  }
  EXPECT_GT(valid, 12u);
}

TEST_F(InputsTest, StrictGrammarStrategyIsAllValid) {
  GrammarStrategy strategy(/*corruption_rate=*/0.0, /*rng_seed=*/1, /*strict=*/true);
  strategy.on_episode(system_, 3);
  for (const auto& body : strategy.next_batch(50)) {
    EXPECT_TRUE(bgp::decode(bgp::wrap_update_body(body)).ok())
        << util::to_hex(body);
  }
}

TEST_F(InputsTest, RandomStrategyNeedsNoEpisode) {
  RandomStrategy strategy;
  strategy.on_episode(system_, 0);
  const auto batch = strategy.next_batch(10);
  EXPECT_EQ(batch.size(), 10u);
  for (const auto& body : batch) EXPECT_FALSE(body.empty());
}

TEST_F(InputsTest, ConcolicStrategyGeneratesAndTracksStats) {
  ConcolicStrategy strategy;
  strategy.on_episode(system_, 3);
  const auto batch = strategy.next_batch(20);
  EXPECT_FALSE(batch.empty());
  EXPECT_LE(batch.size(), 20u);
  EXPECT_GT(strategy.stats().executions, 0u);
  EXPECT_GT(strategy.stats().unique_paths, 0u);
  EXPECT_GT(strategy.stats().branch_points, 0u);

  // Second batch continues the same episode's exploration.
  const auto more = strategy.next_batch(20);
  EXPECT_FALSE(more.empty());
  EXPECT_GT(strategy.stats().executions, batch.size());
}

TEST_F(InputsTest, SolverCountersMoveOnConcolicEpisodesOnly) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const auto solver_work = [&](const obs::MetricsSnapshot& since) {
    const obs::MetricsSnapshot delta = registry.snapshot().delta_since(since);
    return std::pair{delta.counter_value(obs::names::kSolverQueries),
                     delta.counter_value(obs::names::kSolverEvaluations)};
  };

  const obs::MetricsSnapshot before_grammar = registry.snapshot();
  GrammarStrategy grammar(/*corruption_rate=*/0.0);
  grammar.on_episode(system_, 3);
  (void)grammar.next_batch(20);
  EXPECT_EQ(solver_work(before_grammar), std::pair(std::uint64_t{0}, std::uint64_t{0}));

  const obs::MetricsSnapshot before_concolic = registry.snapshot();
  ConcolicStrategy concolic;
  concolic.on_episode(system_, 3);
  (void)concolic.next_batch(20);
  const auto [queries, evaluations] = solver_work(before_concolic);
  if (obs::kEnabled) {
    EXPECT_GT(queries, 0u);
    EXPECT_GE(evaluations, queries);  // no memo: each query evaluates its negated branch
  } else {
    EXPECT_EQ(queries, 0u);
  }
}

TEST_F(InputsTest, ConcolicStrategyRetargetsPerEpisode) {
  ConcolicStrategy strategy;
  strategy.on_episode(system_, 0);
  (void)strategy.next_batch(5);
  const auto execs_before = strategy.stats().executions;
  strategy.on_episode(system_, 7);  // new explorer: fresh engine, stats keep accumulating
  (void)strategy.next_batch(5);
  EXPECT_GT(strategy.stats().executions, execs_before);
}

TEST_F(InputsTest, ConcolicFindsInjectedBugDuringGeneration) {
  // Strategy-level check (no clones involved): the engine's own crash
  // log must contain the injected parser bug.
  bgp::SystemBlueprint bp = make_line(2);
  bgp::inject_bug(bp, 0, bgp::bugs::kCommunityLength);
  System buggy(std::move(bp));
  buggy.start();
  ASSERT_TRUE(buggy.converge());

  ConcolicStrategy::Options options;
  options.engine.max_executions = 3000;
  ConcolicStrategy strategy(options);
  strategy.on_episode(buggy, 0);
  for (int i = 0; i < 20 && strategy.crashes().empty(); ++i) {
    (void)strategy.next_batch(50);
  }
  ASSERT_FALSE(strategy.crashes().empty());
  EXPECT_NE(strategy.crashes()[0].reason.find("community_length"), std::string::npos);
}

TEST_F(InputsTest, StrategiesAreDeterministicPerSeed) {
  GrammarStrategy a(/*corruption_rate=*/0.1, /*rng_seed=*/42);
  GrammarStrategy b(/*corruption_rate=*/0.1, /*rng_seed=*/42);
  a.on_episode(system_, 3);
  b.on_episode(system_, 3);
  EXPECT_EQ(a.next_batch(10), b.next_batch(10));

  RandomStrategy ra(7);
  RandomStrategy rb(7);
  ra.on_episode(system_, 0);
  rb.on_episode(system_, 0);
  EXPECT_EQ(ra.next_batch(10), rb.next_batch(10));
}

}  // namespace
}  // namespace dice::core
