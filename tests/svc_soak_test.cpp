// svc::SoakService: the resident soak daemon's receipts.
//
//  * Determinism: every daemon round over the fixed receipt scenario
//    reproduces the standalone batch harness's fault-set hash
//    0x63f680b04458c2a9 — at workers 1/2/4/8, cold or warm.
//  * Warm start: a killed-and-restarted daemon primes from the store,
//    serves round-1 bootstraps from cache, produces the same fault bytes,
//    and re-saves a byte-identical store file.
//  * Robustness: a corrupt store cold-starts with a typed error retained;
//    a stored cut that no longer decodes falls back to a fresh bootstrap.
//  * Passivity: observers and metrics never move the fault bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "svc/soak_observer.hpp"
#include "svc/soak_service.hpp"

namespace dice::svc {
namespace {

/// The literal receipt: single-cell topology27 campaign, fixed strategy
/// seed. Pinned against the standalone batch harness.
constexpr std::uint64_t kReceiptHash = 0x63f680b04458c2a9ull;

[[nodiscard]] std::vector<explore::ScenarioSpec> receipt_scenarios() {
  std::vector<explore::ScenarioSpec> specs;
  specs.push_back(*explore::bench_scenario("topology27"));
  return specs;
}

[[nodiscard]] explore::CampaignOptions receipt_campaign(std::size_t workers) {
  auto built = explore::CampaignOptions::builder()
                   .strategies({explore::StrategyKind::kGrammar})
                   .seeds({1})
                   .episodes_per_cell(2)
                   .inputs_per_episode(32)
                   .bootstrap_events(2'000'000)
                   .strategy_seed(0xf1f1)
                   .parallelism(workers)
                   .build();
  EXPECT_TRUE(built.ok());
  return std::move(built).take();
}

[[nodiscard]] SoakOptions receipt_options(std::size_t workers,
                                          std::string store_path = {}) {
  SoakOptions options;
  options.campaign = receipt_campaign(workers);
  options.store_path = std::move(store_path);
  return options;
}

[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

[[nodiscard]] util::Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return util::Bytes((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(SoakServiceTest, EveryRoundReproducesTheBatchHashAtAnyWorkerCount) {
  // The batch comparator first: a plain Campaign over the same options.
  explore::Campaign batch(receipt_scenarios(), receipt_campaign(2));
  const explore::CampaignResult batch_result = batch.run();
  ASSERT_EQ(fault_set_hash(batch_result.faults), kReceiptHash);

  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    SoakService service(receipt_scenarios(), receipt_options(workers));
    for (int round = 0; round < 2; ++round) {
      const RoundSummary summary = service.run_round();
      EXPECT_EQ(summary.fault_hash, kReceiptHash)
          << "workers=" << workers << " round=" << round;
      EXPECT_EQ(summary.cells_completed, 1u);
      EXPECT_FALSE(summary.stopped);
    }
    const SoakReport report = service.report();
    EXPECT_EQ(report.rounds, 2u);
    // Round 2 resumes round 1's bootstrap from the service cache.
    ASSERT_EQ(report.round_summaries.size(), 2u);
    EXPECT_EQ(report.round_summaries[1].cells_from_cache, 1u);
    // Cross-round dedup: round 2 re-finds the same faults, adds none.
    EXPECT_EQ(report.round_summaries[1].new_faults, 0u);
    EXPECT_EQ(report.faults.size(), report.round_summaries[0].faults);
  }
}

TEST(SoakServiceTest, WarmRestartReproducesFaultBytesAndStoreBytes) {
  const std::string cold_store = temp_path("svc_soak_cold.dsvc");
  const std::string warm_store = temp_path("svc_soak_warm.dsvc");

  // Uninterrupted reference: two rounds in one process.
  std::uint64_t cold_hash = 0;
  {
    SoakService service(receipt_scenarios(), receipt_options(2, cold_store));
    const SoakReport report = service.run(2);
    ASSERT_EQ(report.rounds, 2u);
    cold_hash = report.round_summaries[1].fault_hash;
    EXPECT_FALSE(report.warm_started);
  }

  // Killed-and-restarted: one round, process death (destructor), restart.
  {
    SoakService service(receipt_scenarios(), receipt_options(2, warm_store));
    (void)service.run(1);
  }
  {
    SoakService revived(receipt_scenarios(), receipt_options(2, warm_store));
    const SoakReport boot = revived.report();
    EXPECT_TRUE(boot.warm_started);
    EXPECT_GT(boot.primed_from_store, 0u);
    EXPECT_TRUE(revived.store_error().code.empty());

    const RoundSummary summary = revived.run_round();
    // The restarted daemon's first round: bootstraps from the store...
    EXPECT_EQ(summary.cells_from_cache, 1u);
    // ...and byte-identical faults.
    EXPECT_EQ(summary.fault_hash, cold_hash);
    EXPECT_EQ(summary.fault_hash, kReceiptHash);
  }

  // The two histories converge to byte-identical stores.
  EXPECT_EQ(slurp(cold_store), slurp(warm_store));
  std::remove(cold_store.c_str());
  std::remove(warm_store.c_str());
}

TEST(SoakServiceTest, CorruptStoreDegradesToTypedColdStart) {
  const std::string store = temp_path("svc_soak_corrupt.dsvc");
  {
    std::ofstream out(store, std::ios::binary | std::ios::trunc);
    out << "garbage, not a store";
  }
  SoakService service(receipt_scenarios(), receipt_options(2, store));
  EXPECT_EQ(service.store_error().code, "svc.store.bad_magic");
  const SoakReport boot = service.report();
  EXPECT_FALSE(boot.warm_started);
  EXPECT_EQ(boot.primed_from_store, 0u);

  // The cold start is a REAL start: the round runs and reproduces the
  // receipt, and the next save replaces the corpse with a valid store.
  const RoundSummary summary = service.run_round();
  EXPECT_EQ(summary.fault_hash, kReceiptHash);
  EXPECT_EQ(summary.cells_from_cache, 0u);
  auto reloaded = ArtifactStore(store).load();
  EXPECT_TRUE(reloaded.ok());
  std::remove(store.c_str());
}

TEST(SoakServiceTest, UndecodableStoredCutFallsBackToAFreshBootstrap) {
  // A store that loads cleanly can still hold a cut this build no longer
  // decodes. The resume then fails typed and the cell bootstraps fresh,
  // exactly as a cold round would.
  const std::string store = temp_path("svc_soak_undecodable.dsvc");
  std::uint64_t cold_hash = 0;
  {
    SoakService service(receipt_scenarios(), receipt_options(2, store));
    const RoundSummary cold = service.run_round();
    EXPECT_EQ(cold.cells_from_cache, 0u);
    cold_hash = cold.fault_hash;
    ASSERT_TRUE(service.persist().ok());
  }
  auto loaded = ArtifactStore(store).load();
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();
  StoreContents contents = std::move(loaded).take();
  ASSERT_EQ(contents.live_states.size(), 1u);
  snapshot::Snapshot& snap = contents.live_states[0].snap;
  ASSERT_FALSE(snap.nodes.empty());
  // The retired fixed-width format's first byte. The recorded hash stays,
  // so the cut hash still matches and the store still loads.
  snap.nodes.begin()->second.state = util::Bytes{0x01};
  ASSERT_EQ(snap.cut_hash(), contents.live_states[0].cut_hash);
  ASSERT_TRUE(ArtifactStore(store).save(contents).ok());

  SoakService revived(receipt_scenarios(), receipt_options(2, store));
  EXPECT_TRUE(revived.store_error().code.empty());
  EXPECT_EQ(revived.report().primed_from_store, 1u);
  const RoundSummary summary = revived.run_round();
  EXPECT_EQ(summary.cells_from_cache, 0u);
  EXPECT_EQ(summary.cells_completed, 1u);
  EXPECT_FALSE(summary.stopped);
  EXPECT_EQ(summary.fault_hash, cold_hash);
  EXPECT_EQ(summary.fault_hash, kReceiptHash);
  std::remove(store.c_str());
}

TEST(SoakServiceTest, OptionsValidateRejectsNonsense) {
  SoakOptions zero_cadence;
  zero_cadence.campaign = receipt_campaign(1);
  zero_cadence.persist_every_rounds = 0;
  EXPECT_EQ(zero_cadence.validate().error().code,
            "svc.options.zero_persist_cadence");

  SoakOptions negative;
  negative.campaign = receipt_campaign(1);
  negative.round_interval = std::chrono::milliseconds(-1);
  EXPECT_EQ(negative.validate().error().code, "svc.options.negative_interval");

  SoakOptions bad_campaign;
  bad_campaign.campaign = receipt_campaign(1);
  bad_campaign.campaign.determinism.seeds.clear();
  EXPECT_EQ(bad_campaign.validate().error().code, "campaign.options.no_seeds");

  EXPECT_TRUE(receipt_options(1).validate().ok());
}

TEST(SoakServiceTest, DaemonLoopDrainsToAWellFormedPersistedReport) {
  const std::string report_path = temp_path("svc_soak_report.json");
  const std::string metrics_path = temp_path("svc_soak_metrics.prom");
  SoakOptions options = receipt_options(2);
  options.max_rounds = 2;
  options.report_path = report_path;
  options.metrics_path = metrics_path;

  SoakService service(receipt_scenarios(), options);
  service.start();
  EXPECT_TRUE(service.running());
  service.drain();  // max_rounds already bounds the loop; drain joins it
  EXPECT_FALSE(service.running());

  const SoakReport report = service.report();
  EXPECT_GE(report.rounds, 1u);
  for (const RoundSummary& summary : report.round_summaries) {
    EXPECT_EQ(summary.fault_hash, kReceiptHash);
  }

  // The control surface landed atomically: parseable-looking JSON with the
  // stable keys, Prometheus text beside it.
  const std::string json(reinterpret_cast<const char*>(slurp(report_path).data()),
                         slurp(report_path).size());
  EXPECT_NE(json.find("\"rounds\":"), std::string::npos);
  EXPECT_NE(json.find("\"fault_hash\":\"63f680b04458c2a9\""), std::string::npos);
  if (obs::kEnabled) {
    const std::string prom(
        reinterpret_cast<const char*>(slurp(metrics_path).data()),
        slurp(metrics_path).size());
    EXPECT_NE(prom.find("dice_svc_rounds_total"), std::string::npos);
  }
  std::remove(report_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(SoakServiceTest, ObserversAndMetricsAreStrictlyPassive) {
  // Wall-clock observer attached, metrics file on, report file on — none
  // of it may move the fault bytes.
  const std::uint64_t rounds_before =
      obs::MetricsRegistry::global().snapshot().counter_value(
          obs::names::kSvcRounds);

  SoakObserver observer;
  SoakOptions options = receipt_options(4);
  options.campaign.telemetry.wall_observer = &observer;
  SoakService service(receipt_scenarios(), options);
  const SoakReport report = service.run(2);

  ASSERT_EQ(report.rounds, 2u);
  for (const RoundSummary& summary : report.round_summaries) {
    EXPECT_EQ(summary.fault_hash, kReceiptHash);
  }

  // The liveness stream delivered every completed cell and its faults.
  const SoakObserver::Stats stats = observer.stats();
  EXPECT_EQ(stats.cells_seen, 2u);
  EXPECT_EQ(stats.faults_seen,
            report.round_summaries[0].faults + report.round_summaries[1].faults);
  EXPECT_EQ(observer.completion_order().size(), 2u);

  if (obs::kEnabled) {
    const std::uint64_t rounds_after =
        obs::MetricsRegistry::global().snapshot().counter_value(
            obs::names::kSvcRounds);
    EXPECT_EQ(rounds_after - rounds_before, 2u);
  }
}

TEST(SoakServiceTest, ReportJsonHasStableShape) {
  SoakReport report;
  report.rounds = 1;
  RoundSummary summary;
  summary.fault_hash = kReceiptHash;
  summary.wall_ms = 1.5;
  report.round_summaries.push_back(summary);
  core::FaultReport fault;
  fault.check = "quote\"and\\slash";
  fault.description = "line\nbreak";
  report.faults.push_back(fault);

  const std::string json = report.to_json();
  EXPECT_EQ(json.rfind("{\"rounds\":1,\"warm_starts\":0,", 0), 0u) << json;
  EXPECT_NE(json.find("\"fault_hash\":\"63f680b04458c2a9\""), std::string::npos);
  EXPECT_NE(json.find("\\\"and\\\\"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // single line, atomic-friendly
}

}  // namespace
}  // namespace dice::svc
