// End-to-end DiCE tests: the three fault classes from the paper, detected
// by full exploration episodes over a live system, plus the narrow
// information-sharing interface and no-false-positive baselines.
#include <gtest/gtest.h>

#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"

namespace dice::core {
namespace {

using bgp::bugs::kCommunityLength;
using bgp::inject_bug;
using bgp::inject_hijack;
using bgp::make_bad_gadget;
using bgp::make_internet;
using bgp::make_line;

DiceOptions fast_options() {
  DiceOptions options;
  options.inputs_per_episode = 12;
  options.clone_event_budget = 60'000;
  return options;
}

TEST(ChecksTest, PrefixHashIsSaltedAndStable) {
  const util::IpPrefix p{util::IpAddress{10, 1, 0, 0}, 16};
  EXPECT_EQ(hash_prefix(p), hash_prefix(p));
  EXPECT_NE(hash_prefix(p), hash_prefix(p, /*salt=*/123));
  EXPECT_NE(hash_prefix(p), hash_prefix(util::IpPrefix{util::IpAddress{10, 1, 0, 0}, 17}));
}

TEST(ChecksTest, VerdictsCarryNoRawPrefixes) {
  // The narrow interface: origin claims expose hashes + ASNs only.
  System system(make_line(2));
  system.start();
  ASSERT_TRUE(system.converge());
  const OriginClaimCheck check;
  const CheckVerdict verdict = check.run(system.router(0));
  // 2 routes, each with its exact claim plus covering claims down to /8:
  // a /16 publishes 1 + 8 = 9 claims.
  EXPECT_EQ(verdict.origin_claims.size(), 18u);
  for (const auto& claim : verdict.origin_claims) {
    EXPECT_NE(claim.prefix_hash, 0u);
  }
  // Summary is empty (nothing to redact) and counters are aggregates.
  EXPECT_TRUE(verdict.summary.empty());
  EXPECT_EQ(verdict.counters.at("claims"), 18u);
}

TEST(ChecksTest, OriginAggregationFindsMoas) {
  std::vector<CheckVerdict> verdicts(2);
  verdicts[0].node = 0;
  verdicts[0].owned_prefix_hashes = {111};
  verdicts[0].origin_claims = {{111, 65000}};
  verdicts[1].node = 1;
  verdicts[1].origin_claims = {{111, 65009}};  // wrong origin observed at node 1

  const auto owners = collect_owners(verdicts, {{0, 65000}, {1, 65001}});
  ASSERT_TRUE(owners.contains(111));
  const auto violations = aggregate_origin_claims(verdicts, owners);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].legitimate_origin, 65000u);
  EXPECT_EQ(violations[0].observed_origin, 65009u);
  EXPECT_EQ(violations[0].observers, std::vector<sim::NodeId>{1});
}

TEST(ChecksTest, UnownedPrefixesNotCheckable) {
  std::vector<CheckVerdict> verdicts(1);
  verdicts[0].node = 0;
  verdicts[0].origin_claims = {{222, 65009}};  // nobody owns 222
  const auto violations = aggregate_origin_claims(verdicts, collect_owners(verdicts, {}));
  EXPECT_TRUE(violations.empty());
}

TEST(DiceTest, CleanSystemProducesNoStandingFaults) {
  // A healthy system must report no faults about its *current* state.
  // Potential faults (reachable only via subjected inputs) are allowed —
  // a permissive import policy that would accept a hijack announcement is
  // a legitimate vulnerability finding, not a false positive.
  Orchestrator dice(make_internet({2, 3, 4}), fast_options());
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.0);
  const EpisodeResult episode = dice.run_episode(strategy);
  EXPECT_GT(episode.clones_run, 0u);
  for (const FaultReport& fault : episode.faults) {
    EXPECT_TRUE(fault.potential) << fault.to_string();
  }
}

TEST(DiceTest, FuzzedHijackAnnouncementFlaggedAsPotential) {
  // DiCE's proactive story: on a clean system, the grammar synthesizes a
  // more-specific announcement of a known prefix; the clone accepts it
  // (no origin filtering configured) and the checker reports a POTENTIAL
  // operator mistake — found before any real peer ever sends it.
  DiceOptions options = fast_options();
  options.inputs_per_episode = 32;
  Orchestrator dice(make_internet({2, 3, 4}), options);
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy(/*corruption_rate=*/0.0);
  bool potential_origin_fault = false;
  for (int i = 0; i < 4 && !potential_origin_fault; ++i) {
    const EpisodeResult episode = dice.run_episode(strategy);
    for (const FaultReport& fault : episode.faults) {
      potential_origin_fault |= fault.potential && fault.check == "route-origin";
    }
  }
  EXPECT_TRUE(potential_origin_fault);
}

TEST(DiceTest, DetectsOperatorMistakeHijack) {
  // The classic misconfiguration: a stub AS originates someone else's
  // prefix. DiCE's baseline clone + origin aggregation must flag it as an
  // operator mistake in the very first episode.
  bgp::SystemBlueprint bp = make_internet({2, 3, 4});
  inject_hijack(bp, /*victim=*/5, /*attacker=*/8);
  Orchestrator dice(std::move(bp), fast_options());
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const EpisodeResult episode = dice.run_episode(strategy);
  bool found = false;
  for (const FaultReport& fault : episode.faults) {
    if (fault.fault_class == FaultClass::kOperatorMistake && fault.check == "route-origin") {
      found = true;
      // Narrow interface: the description names ASNs and a prefix *hash*.
      EXPECT_NE(fault.description.find("AS"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << render_fault_table(episode.faults);
}

TEST(DiceTest, DetectsMoreSpecificSubPrefixHijack) {
  // YouTube-style: the attacker announces a /24 inside the victim's /16.
  // Longest-prefix match spreads it everywhere, and the covering-prefix
  // claims in OriginClaimCheck let the /16's owner recognize the theft.
  bgp::SystemBlueprint bp = make_internet({2, 3, 4});
  inject_hijack(bp, /*victim=*/5, /*attacker=*/8, /*more_specific=*/true);
  Orchestrator dice(std::move(bp), fast_options());
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const EpisodeResult episode = dice.run_episode(strategy);
  bool found = false;
  for (const FaultReport& fault : episode.faults) {
    found |= fault.fault_class == FaultClass::kOperatorMistake &&
             fault.check == "route-origin";
  }
  EXPECT_TRUE(found) << render_fault_table(episode.faults);
}

TEST(DiceTest, DetectsPolicyConflictDisputeWheel) {
  DiceOptions options = fast_options();
  options.clone_event_budget = 20'000;  // wheels never quiesce; keep it tight
  Orchestrator dice(make_bad_gadget(), options);
  // The live system cannot converge — bootstrap reports that.
  EXPECT_FALSE(dice.bootstrap(/*max_events=*/20'000));
  GrammarStrategy strategy;
  const EpisodeResult episode = dice.run_episode(strategy);
  bool oscillation = false;
  bool non_quiescence = false;
  for (const FaultReport& fault : episode.faults) {
    if (fault.fault_class != FaultClass::kPolicyConflict) continue;
    oscillation |= fault.check == "oscillation";
    non_quiescence |= fault.check == "non-quiescence";
  }
  EXPECT_TRUE(oscillation || non_quiescence) << render_fault_table(episode.faults);
}

TEST(DiceTest, DetectsProgrammingErrorViaConcolic) {
  // A latent parser bug on one router: no live traffic triggers it, but
  // concolic exploration of the UPDATE handler constructs the crashing
  // input and the clone run surfaces the crash.
  bgp::SystemBlueprint bp = make_line(3);
  inject_bug(bp, /*node=*/0, kCommunityLength);
  DiceOptions options = fast_options();
  options.inputs_per_episode = 48;
  Orchestrator dice(std::move(bp), options);
  ASSERT_TRUE(dice.bootstrap());

  ConcolicStrategy strategy;
  // Explorer rotation: episode 1 explores node 0 (the buggy one).
  const std::size_t inputs = dice.explore_until_fault(
      strategy, FaultClass::kProgrammingError, /*max_episodes=*/6);
  EXPECT_NE(inputs, SIZE_MAX) << "concolic exploration failed to reach the injected bug";
  // The engine itself must also have logged the crash during generation.
  EXPECT_GE(strategy.crashes().size() + strategy.stats().crashes, 1u);
}

/// The options bench_e1_hijack and bench_e3_program_error drive: the
/// campaign builder's lowering plus the serial early-exit contract.
DiceOptions early_exit_options(std::size_t inputs_per_episode) {
  DiceOptions options = explore::CampaignOptions::builder()
                            .inputs_per_episode(inputs_per_episode)
                            .build()
                            .take()
                            .to_dice_options();
  options.stop_on_first_fault = true;
  return options;
}

/// Counts next_batch calls on the wrapped strategy.
class CountingStrategy final : public InputStrategy {
 public:
  explicit CountingStrategy(InputStrategy& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  void on_episode(const System& live, sim::NodeId explorer) override {
    inner_.on_episode(live, explorer);
  }
  [[nodiscard]] std::vector<util::Bytes> next_batch(std::size_t n) override {
    ++batches_;
    return inner_.next_batch(n);
  }
  [[nodiscard]] std::size_t batches() const noexcept { return batches_; }

 private:
  InputStrategy& inner_;
  std::size_t batches_ = 0;
};

TEST(DiceTest, StopOnFirstFaultProbeCountsArePinned) {
  // bench_e3_program_error's concolic rows: probes (baseline clones plus
  // subjected inputs) until the first programming error. Early exit makes
  // the count exact, so any change to clone order, input order or the
  // stop rule moves it.
  const std::pair<std::uint32_t, std::size_t> rows[] = {
      {bgp::bugs::kCommunityLength, 15},
      {bgp::bugs::kAsPathZeroSegment, 57},
      {bgp::bugs::kMedOverflow, 34}};
  for (const auto& [bug, probes] : rows) {
    bgp::SystemBlueprint bp = make_line(3);
    inject_bug(bp, /*node=*/0, bug);
    Orchestrator dice(std::move(bp), early_exit_options(64));
    ASSERT_TRUE(dice.bootstrap());
    ConcolicStrategy::Options concolic;
    concolic.engine.max_executions = 4000;
    ConcolicStrategy strategy(concolic);
    EXPECT_EQ(dice.explore_until_fault(strategy, FaultClass::kProgrammingError,
                                       /*max_episodes=*/9),
              probes)
        << "bug mask " << bug;
  }
}

TEST(DiceTest, StopOnFirstFaultBaselineEndsEpisodeBeforeInputGeneration) {
  // bench_e1_hijack's same-prefix MOAS row: the baseline clone already
  // carries the hijack, so the episode ends after one probe and the
  // strategy is never asked for inputs.
  bgp::SystemBlueprint bp = make_internet();
  inject_hijack(bp, /*victim=*/12, /*attacker=*/20, /*more_specific=*/false);
  Orchestrator dice(std::move(bp), early_exit_options(16));
  ASSERT_TRUE(dice.bootstrap());
  ConcolicStrategy inner;
  CountingStrategy strategy(inner);
  EXPECT_EQ(dice.explore_until_fault(strategy, FaultClass::kOperatorMistake,
                                     /*max_episodes=*/8),
            1u);
  EXPECT_EQ(dice.episodes_run(), 1u);
  EXPECT_EQ(strategy.batches(), 0u);
}

TEST(DiceTest, ExplorerRotationCoversAllNodes) {
  Orchestrator dice(make_line(3), fast_options());
  EXPECT_EQ(dice.next_explorer(), 0u);
  EXPECT_EQ(dice.next_explorer(), 1u);
  EXPECT_EQ(dice.next_explorer(), 2u);
  EXPECT_EQ(dice.next_explorer(), 0u);
}

TEST(DiceTest, EpisodeTimingsAreRecorded) {
  Orchestrator dice(make_line(3), fast_options());
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const EpisodeResult episode = dice.run_episode(strategy);
  EXPECT_GT(episode.snapshot_ms, 0.0);
  EXPECT_GT(episode.clone_ms, 0.0);
  EXPECT_GT(episode.explore_ms, 0.0);
  EXPECT_GT(episode.check_ms, 0.0);
  EXPECT_EQ(episode.inputs_subjected, fast_options().inputs_per_episode);
}

TEST(DiceTest, FaultsDeduplicateWithinEpisode) {
  bgp::SystemBlueprint bp = make_internet({2, 3, 4});
  inject_hijack(bp, 5, 8);
  Orchestrator dice(std::move(bp), fast_options());
  ASSERT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  const EpisodeResult episode = dice.run_episode(strategy);
  // The hijack is present in every clone, but must be reported once
  // (potential findings from fuzzed inputs are separate, standing is one).
  std::size_t standing_origin_faults = 0;
  for (const FaultReport& fault : episode.faults) {
    if (fault.check == "route-origin" && !fault.potential) ++standing_origin_faults;
  }
  EXPECT_EQ(standing_origin_faults, 1u);
}

TEST(DiceTest, LiveSystemUnchangedByExploration) {
  Orchestrator dice(make_internet({2, 3, 4}), fast_options());
  ASSERT_TRUE(dice.bootstrap());
  std::vector<std::uint64_t> hashes_before;
  for (std::size_t i = 0; i < dice.live().size(); ++i) {
    hashes_before.push_back(dice.live().router(static_cast<sim::NodeId>(i)).state_hash());
  }
  GrammarStrategy strategy(/*corruption_rate=*/0.2);
  (void)dice.run_episode(strategy);
  (void)dice.run_episode(strategy);
  ASSERT_TRUE(dice.live().converge());
  for (std::size_t i = 0; i < dice.live().size(); ++i) {
    EXPECT_EQ(dice.live().router(static_cast<sim::NodeId>(i)).state_hash(),
              hashes_before[i])
        << "exploration disturbed live node " << i;
  }
}

TEST(ReportTest, RenderingAndKeys) {
  FaultReport report;
  report.fault_class = FaultClass::kOperatorMistake;
  report.check = "route-origin";
  report.description = "prefix hash X originated by AS65009";
  report.node = 3;
  report.episode = 7;
  report.input = {0xde, 0xad};
  const std::string text = report.to_string();
  EXPECT_NE(text.find("operator-mistake"), std::string::npos);
  EXPECT_NE(text.find("route-origin"), std::string::npos);
  EXPECT_NE(text.find("dead"), std::string::npos);

  FaultReport same = report;
  same.input = {0xbe, 0xef};  // different input, same fault
  EXPECT_EQ(fault_key(report), fault_key(same));
  same.node = 4;
  EXPECT_NE(fault_key(report), fault_key(same));

  EXPECT_EQ(render_fault_table({}), "no faults detected\n");
  EXPECT_NE(render_fault_table({report}).find("route-origin"), std::string::npos);
}

}  // namespace
}  // namespace dice::core
