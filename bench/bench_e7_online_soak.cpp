// E7 — online soak, resident-daemon edition: SoakService rounds with a
// persistent warm-start store.
//
// The paper's setting is *online* testing: DiCE runs beside the deployed
// system indefinitely, not as a batch job. Earlier editions of this bench
// proved non-interference of one exploration pass under live route-feed
// churn; since svc::SoakService exists, the online stance is the resident
// service itself, and what this harness gates is the property that makes
// residency cheap: a killed-and-restarted daemon warm-starts from the
// svc::ArtifactStore instead of re-converging its bootstraps.
//
// Two parts, each a CI gate (exit nonzero on either):
//   1. determinism — every round of the cold topology27 daemon AND the
//      restarted warm daemon reproduces the batch fault-set hash
//      63f680b04458c2a9 (daemon-vs-batch, cold-vs-warm);
//   2. warm restart latency — on the 500-router internet (where a cold
//      bootstrap is a real convergence bill), restart-to-explored
//      (store load + prime + round-1 bootstrap) must be >= 10x faster
//      warm than cold, with cold and warm fault bytes identical.
// Emits BENCH_soak_warmstart.json.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "bench_util.hpp"
#include "bgp/topology.hpp"
#include "svc/soak_service.hpp"

namespace {

using namespace dice;

constexpr std::uint64_t kReceiptHash = 0x63f680b04458c2a9ull;

[[nodiscard]] std::vector<explore::ScenarioSpec> receipt_scenarios() {
  std::vector<explore::ScenarioSpec> specs;
  specs.push_back(*explore::bench_scenario("topology27"));
  return specs;
}

[[nodiscard]] svc::SoakOptions receipt_options(const std::string& store_path) {
  svc::SoakOptions options;
  options.campaign = explore::CampaignOptions::builder()
                         .strategies({explore::StrategyKind::kGrammar})
                         .seeds({1})
                         .episodes_per_cell(2)
                         .inputs_per_episode(32)
                         .bootstrap_events(2'000'000)
                         .strategy_seed(0xf1f1)
                         .parallelism(2)
                         .build()
                         .take();
  options.store_path = store_path;
  return options;
}

/// The scale half: 500 routers (the bench_snapshot_scale mid tier), every
/// stub originating, tiny episode budget — the round cost is dominated by
/// the bootstrap convergence, which is exactly what the store amortizes.
[[nodiscard]] std::vector<explore::ScenarioSpec> scale_scenarios() {
  bgp::InternetTopologyParams params;
  params.tier1 = 5;
  params.tier2 = 45;
  params.stubs = 450;
  params.originate_every = 1;
  std::vector<explore::ScenarioSpec> specs;
  specs.push_back({"internet500", bgp::make_internet(params)});
  return specs;
}

[[nodiscard]] svc::SoakOptions scale_options(const std::string& store_path) {
  svc::SoakOptions options;
  options.campaign = explore::CampaignOptions::builder()
                         .strategies({explore::StrategyKind::kGrammar})
                         .seeds({1})
                         .episodes_per_cell(1)
                         .inputs_per_episode(2)
                         .bootstrap_events(20'000'000)
                         .clone_event_budget(60'000)
                         .parallelism(2)
                         .build()
                         .take();
  options.store_path = store_path;
  return options;
}

[[nodiscard]] std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return std::string(buf);
}

[[nodiscard]] std::size_t file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  return static_cast<std::size_t>(std::distance(
      std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()));
}

}  // namespace

int main() {
  using bench::fmt;
  using bench::Stopwatch;

  std::puts("== E7: resident online soak — determinism pin + warm restart ==\n");

  // --- part 1: daemon-vs-batch determinism on the receipt scenario --------
  std::puts("part 1: topology27 receipt — daemon rounds vs the batch hash");
  const std::string receipt_store = "BENCH_soak_receipt.dsvc";
  std::remove(receipt_store.c_str());
  bool hashes_ok = true;
  std::size_t faults = 0;
  {
    svc::SoakService daemon(receipt_scenarios(), receipt_options(receipt_store));
    for (int round = 0; round < 2; ++round) {
      const svc::RoundSummary summary = daemon.run_round();
      hashes_ok &= summary.fault_hash == kReceiptHash;
      faults = summary.faults;
    }
  }
  {
    svc::SoakService revived(receipt_scenarios(), receipt_options(receipt_store));
    hashes_ok &= revived.report().warm_started;
    const svc::RoundSummary warm_round = revived.run_round();
    hashes_ok &= warm_round.fault_hash == kReceiptHash;
    hashes_ok &= warm_round.cells_from_cache == 1;
    std::printf("  cold rounds + warm-restarted round all %s %s\n",
                hashes_ok ? "reproduce" : "DIVERGED FROM", hex64(kReceiptHash).c_str());
  }
  std::remove(receipt_store.c_str());

  // --- part 2: warm restart latency at 500 routers ------------------------
  std::puts("\npart 2: internet500 — cold vs warm restart latency");
  const std::string store_path = "BENCH_soak_store.dsvc";
  std::remove(store_path.c_str());

  double cold_construct_ms = 0.0;
  double cold_bootstrap_ms = 0.0;
  std::uint64_t cold_hash = 0;
  {
    Stopwatch construct;
    svc::SoakService daemon(scale_scenarios(), scale_options(store_path));
    cold_construct_ms = construct.ms();
    const svc::RoundSummary summary = daemon.run_round();
    cold_bootstrap_ms = summary.bootstrap_ms;
    cold_hash = summary.fault_hash;
  }  // destructor == kill: nothing persists beyond the round-boundary saves

  Stopwatch warm_construct;
  svc::SoakService revived(scale_scenarios(), scale_options(store_path));
  const double warm_construct_ms = warm_construct.ms();
  const svc::SoakReport boot = revived.report();
  const svc::RoundSummary warm = revived.run_round();
  const bool warm_ok = boot.warm_started && warm.cells_from_cache == 1;
  const bool scale_hash_ok = warm.fault_hash == cold_hash;

  const double cold_restart_ms = cold_construct_ms + cold_bootstrap_ms;
  const double warm_restart_ms = warm_construct_ms + warm.bootstrap_ms;
  const double speedup = warm_restart_ms > 0 ? cold_restart_ms / warm_restart_ms : 0.0;

  bench::Table table({"metric", "cold", "warm (restarted)"});
  table.row({"construction (load+prime)", fmt(cold_construct_ms) + " ms",
             fmt(warm_construct_ms) + " ms"});
  table.row({"round-1 bootstrap", fmt(cold_bootstrap_ms) + " ms",
             fmt(warm.bootstrap_ms) + " ms"});
  table.row({"restart-to-explored", fmt(cold_restart_ms) + " ms",
             fmt(warm_restart_ms) + " ms"});
  table.row({"round-1 bootstraps from cache", "0",
             std::to_string(warm.cells_from_cache)});
  table.row({"round fault hash", hex64(cold_hash), hex64(warm.fault_hash)});
  table.print();
  std::printf("\nwarm restart speedup: %.1fx (gate: >= 10x), store %zu bytes\n",
              speedup, file_bytes(store_path));

  std::string json = "{";
  json += "\"cold_construct_ms\":" + fmt(cold_construct_ms, 3);
  json += ",\"cold_bootstrap_ms\":" + fmt(cold_bootstrap_ms, 3);
  json += ",\"cold_restart_ms\":" + fmt(cold_restart_ms, 3);
  json += ",\"warm_construct_ms\":" + fmt(warm_construct_ms, 3);
  json += ",\"warm_bootstrap_ms\":" + fmt(warm.bootstrap_ms, 3);
  json += ",\"warm_restart_ms\":" + fmt(warm_restart_ms, 3);
  json += ",\"speedup\":" + fmt(speedup, 1);
  json += ",\"scale_routers\":500";
  json += ",\"receipt_faults_per_round\":" + std::to_string(faults);
  json += ",\"store_bytes\":" + std::to_string(file_bytes(store_path));
  json += ",\"warm_started\":" + std::string(warm_ok ? "true" : "false");
  json += ",\"fault_set_hash\":\"" + hex64(kReceiptHash) + "\"";
  json += ",\"fault_sets_identical\":" +
          std::string(hashes_ok && scale_hash_ok ? "true" : "false");
  json += "}";
  bench::emit_json("soak_warmstart", json);
  std::remove(store_path.c_str());

  if (!hashes_ok) {
    std::puts("FAIL: a topology27 round's fault-set hash drifted from the receipt");
    return 1;
  }
  if (!scale_hash_ok) {
    std::puts("FAIL: internet500 cold and warm rounds produced different fault bytes");
    return 1;
  }
  if (!warm_ok) {
    std::puts("FAIL: the restarted daemon did not warm-start from the store");
    return 1;
  }
  if (speedup < 10.0) {
    std::printf("FAIL: warm restart only %.1fx faster than cold (gate: 10x)\n",
                speedup);
    return 1;
  }
  std::puts("\nexpected shape: the restarted daemon loads the store, primes its");
  std::puts("bootstrap cache, serves round-1 startup from a resume instead of a");
  std::puts("re-convergence, and reproduces the cold daemon's fault bytes exactly.");
  return 0;
}
