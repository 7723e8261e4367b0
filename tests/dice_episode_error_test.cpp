// Typed episode failures: an engine whose checkpoints do not decode, or do
// not apply, must surface as EpisodeResult::error with a stable code — never
// as an episode that quietly ran zero clones — and a ScenarioMatrix cell
// holding such an episode must be incomplete, withholding its faults.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "bgp/node_impl.hpp"
#include "dice/orchestrator.hpp"
#include "explore/matrix.hpp"

namespace dice::core {
namespace {

constexpr const char* kFailParseId = "test-fail-parse";
constexpr const char* kFailApplyId = "test-fail-apply";

struct InertCheckpoint final : snapshot::DecodedCheckpoint {};

/// A node that speaks nothing and holds no routes. Its checkpoints are one
/// byte; depending on `fail_parse` either decoding or applying them fails.
class FailingEngine final : public bgp::NodeImplementation {
 public:
  FailingEngine(sim::Network& network, sim::NodeId id, bgp::RouterConfig config,
                bool fail_parse)
      : bgp::NodeImplementation(network, id),
        config_(std::move(config)),
        fail_parse_(fail_parse) {}

  [[nodiscard]] std::string_view implementation_id() const noexcept override {
    return fail_parse_ ? kFailParseId : kFailApplyId;
  }
  void start() override {}
  [[nodiscard]] const bgp::RouterConfig& config() const noexcept override {
    return config_;
  }
  [[nodiscard]] const bgp::Rib& loc_rib() const noexcept override { return loc_rib_; }
  [[nodiscard]] const std::map<util::IpPrefix, std::uint32_t>& best_flips()
      const noexcept override {
    return flips_;
  }
  [[nodiscard]] std::uint32_t max_best_flips() const noexcept override { return 0; }
  void reset_flip_counters() override {}
  [[nodiscard]] const Stats& stats() const noexcept override { return stats_; }
  [[nodiscard]] std::size_t established_session_count() const override { return 0; }
  void set_auto_restart(bool) noexcept override {}
  void reset_session(sim::NodeId) override {}
  void reset_for_reuse() override { abort_snapshot(); }
  void for_each_decision(const std::function<void(const DecisionView&)>&) const override {}

  void checkpoint(util::ByteWriter& writer) const override { writer.u8(0x5a); }
  [[nodiscard]] util::Result<std::shared_ptr<const snapshot::DecodedCheckpoint>> parse(
      util::ByteReader& reader) const override {
    if (!reader.u8() || fail_parse_) return util::make_error("test.engine.parse");
    return std::shared_ptr<const snapshot::DecodedCheckpoint>(
        std::make_shared<InertCheckpoint>());
  }
  [[nodiscard]] util::Status apply(const snapshot::DecodedCheckpoint&) override {
    return util::make_error("test.engine.apply");
  }

 protected:
  void deliver_data(sim::NodeId, const util::Bytes&) override {}

 private:
  bgp::RouterConfig config_;
  bool fail_parse_;
  bgp::Rib loc_rib_;
  std::map<util::IpPrefix, std::uint32_t> flips_;
  Stats stats_;
};

[[nodiscard]] bgp::SystemBlueprint failing_line(const std::string& id) {
  static const bool registered = [] {
    auto& registry = bgp::NodeImplementationRegistry::instance();
    for (const bool fail_parse : {true, false}) {
      registry.register_factory(
          fail_parse ? kFailParseId : kFailApplyId,
          [fail_parse](sim::Network& network, sim::NodeId node, bgp::RouterConfig config,
                       bgp::NodeImplementationRegistry::AddressBook) {
            return std::make_unique<FailingEngine>(network, node, std::move(config),
                                                   fail_parse);
          });
    }
    return true;
  }();
  (void)registered;
  bgp::SystemBlueprint blueprint = bgp::make_line(3);
  blueprint.set_all_implementations(id);
  return blueprint;
}

[[nodiscard]] EpisodeResult run_one_episode(const std::string& id) {
  DiceOptions options;
  options.inputs_per_episode = 4;
  Orchestrator dice(failing_line(id), options);
  EXPECT_TRUE(dice.bootstrap());
  GrammarStrategy strategy;
  return dice.run_episode(strategy);
}

TEST(EpisodeErrorTest, UndecodableSnapshotFailsPrepare) {
  const EpisodeResult episode = run_one_episode(kFailParseId);
  EXPECT_NE(episode.snapshot_id, 0u);
  ASSERT_TRUE(episode.error.has_value()) << "a failed prepare must not pass as 0 clones";
  EXPECT_EQ(episode.error->code, "dice.episode.prepare_failed");
  EXPECT_EQ(episode.clones_run, 0u);
  EXPECT_TRUE(episode.faults.empty());
}

TEST(EpisodeErrorTest, UnappliableCheckpointFailsCloneReset) {
  const EpisodeResult episode = run_one_episode(kFailApplyId);
  ASSERT_TRUE(episode.error.has_value()) << "a failed reset must not pass as 0 clones";
  EXPECT_EQ(episode.error->code, "dice.episode.clone_reset_failed");
  EXPECT_NE(episode.error->detail.find("test.engine.apply"), std::string::npos)
      << episode.error->detail;
  EXPECT_EQ(episode.clones_run, 0u);
}

TEST(EpisodeErrorTest, MatrixCellWithErroredEpisodeIsIncomplete) {
  for (const char* id : {kFailParseId, kFailApplyId}) {
    std::vector<explore::ScenarioSpec> scenarios;
    scenarios.push_back({"line3-failing", failing_line(id)});
    explore::MatrixOptions options;
    options.strategies = {explore::StrategyKind::kGrammar};
    options.seeds = {1};
    options.episodes_per_cell = 2;
    options.dice.inputs_per_episode = 4;
    explore::ScenarioMatrix matrix(std::move(scenarios), options);
    explore::ExplorePool pool(2);
    const explore::MatrixResult result = matrix.run(pool, {});
    ASSERT_EQ(result.cells.size(), 1u) << id;
    EXPECT_TRUE(result.cells[0].started) << id;
    EXPECT_FALSE(result.cells[0].completed) << id;
    EXPECT_EQ(result.cells[0].episodes, 1u) << id << ": the errored episode ends the cell";
    EXPECT_EQ(result.cells_completed, 0u) << id;
    EXPECT_TRUE(result.stopped) << id;
    EXPECT_TRUE(result.faults.empty()) << id;
  }
}

}  // namespace
}  // namespace dice::core
