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
//      warm than cold, with cold and warm fault bytes identical. Timed as
//      kRestartPairs cold/warm pairs (cold on a fresh store, then warm
//      from the store that cold run left), each in its own forked process,
//      and gated on the median pair's speedup, so one noisy wall-clock
//      sample cannot flip the verdict.
// Emits BENCH_soak_warmstart.json (every pair, plus the median).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

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

/// One kill-and-restart at 500 routers: a cold daemon on a fresh store runs
/// one round (which persists) and dies; a restarted daemon warm-starts from
/// that store and runs one round.
struct RestartPair {
  double cold_construct_ms = 0.0;
  double cold_bootstrap_ms = 0.0;
  double warm_construct_ms = 0.0;
  double warm_bootstrap_ms = 0.0;
  std::uint64_t cold_hash = 0;
  std::uint64_t warm_hash = 0;
  std::size_t warm_cells_from_cache = 0;
  bool warm_started = false;  ///< the store primed at least one artifact
  std::size_t store_bytes = 0;

  [[nodiscard]] double cold_restart_ms() const {
    return cold_construct_ms + cold_bootstrap_ms;
  }
  [[nodiscard]] double warm_restart_ms() const {
    return warm_construct_ms + warm_bootstrap_ms;
  }
  [[nodiscard]] double speedup() const {
    return warm_restart_ms() > 0 ? cold_restart_ms() / warm_restart_ms() : 0.0;
  }
  [[nodiscard]] bool warm_ok() const {
    return warm_started && warm_cells_from_cache == 1;
  }
};

[[nodiscard]] RestartPair time_restart_pair(const std::string& store_path) {
  RestartPair pair;
  std::remove(store_path.c_str());  // every cold run starts from a fresh store
  {
    bench::Stopwatch construct;
    svc::SoakService daemon(scale_scenarios(), scale_options(store_path));
    pair.cold_construct_ms = construct.ms();
    const svc::RoundSummary summary = daemon.run_round();
    pair.cold_bootstrap_ms = summary.bootstrap_ms;
    pair.cold_hash = summary.fault_hash;
  }  // destructor == kill: nothing persists beyond the round-boundary saves
  pair.store_bytes = file_bytes(store_path);

  bench::Stopwatch construct;
  svc::SoakService revived(scale_scenarios(), scale_options(store_path));
  pair.warm_construct_ms = construct.ms();
  pair.warm_started = revived.report().warm_started;
  const svc::RoundSummary summary = revived.run_round();
  pair.warm_bootstrap_ms = summary.bootstrap_ms;
  pair.warm_hash = summary.fault_hash;
  pair.warm_cells_from_cache = summary.cells_from_cache;
  return pair;
}

/// time_restart_pair in a forked child, so every pair starts from the same
/// fresh process a real restart gets. Run back to back in one process, the
/// heap earlier pairs leave behind slowed later warm runs and sped up later
/// cold runs, which biased the later pairs' speedups low. Call only while
/// this process runs no other thread. nullopt = the child failed.
[[nodiscard]] std::optional<RestartPair> time_restart_pair_in_child(
    const std::string& store_path) {
  static_assert(std::is_trivially_copyable_v<RestartPair>);
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  std::fflush(nullptr);  // the child must not re-flush the parent's buffers
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(fds[0]);
    const RestartPair pair = time_restart_pair(store_path);
    const bool sent = ::write(fds[1], &pair, sizeof(pair)) ==
                      static_cast<ssize_t>(sizeof(pair));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  RestartPair pair;
  std::size_t got = 0;
  auto* bytes = reinterpret_cast<unsigned char*>(&pair);
  while (child > 0 && got < sizeof(pair)) {
    const ssize_t n = ::read(fds[0], bytes + got, sizeof(pair) - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  if (child < 0 || ::waitpid(child, &status, 0) != child || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || got != sizeof(pair)) {
    return std::nullopt;
  }
  return pair;
}

[[nodiscard]] std::string pair_json(const RestartPair& pair) {
  using bench::fmt;
  std::string json = "{";
  json += "\"cold_construct_ms\":" + fmt(pair.cold_construct_ms, 3);
  json += ",\"cold_bootstrap_ms\":" + fmt(pair.cold_bootstrap_ms, 3);
  json += ",\"cold_restart_ms\":" + fmt(pair.cold_restart_ms(), 3);
  json += ",\"warm_construct_ms\":" + fmt(pair.warm_construct_ms, 3);
  json += ",\"warm_bootstrap_ms\":" + fmt(pair.warm_bootstrap_ms, 3);
  json += ",\"warm_restart_ms\":" + fmt(pair.warm_restart_ms(), 3);
  json += ",\"speedup\":" + fmt(pair.speedup(), 1);
  json += ",\"warm_cells_from_cache\":" + std::to_string(pair.warm_cells_from_cache);
  json += ",\"cold_fault_hash\":\"" + hex64(pair.cold_hash) + "\"";
  json += ",\"warm_fault_hash\":\"" + hex64(pair.warm_hash) + "\"";
  json += "}";
  return json;
}

/// Cold/warm restart pairs timed for the latency gate (odd, so the median
/// is one pair).
constexpr std::size_t kRestartPairs = 3;

}  // namespace

int main() {
  using bench::fmt;

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
  std::vector<RestartPair> pairs;
  for (std::size_t i = 0; i < kRestartPairs; ++i) {
    std::optional<RestartPair> pair = time_restart_pair_in_child(store_path);
    if (!pair.has_value()) {
      std::printf("FAIL: restart pair %zu's child process failed\n", i);
      std::remove(store_path.c_str());
      return 1;
    }
    pairs.push_back(*pair);
  }
  std::remove(store_path.c_str());

  bool warm_ok = true;
  bool scale_hash_ok = true;
  for (const RestartPair& pair : pairs) {
    warm_ok &= pair.warm_ok();
    scale_hash_ok &= pair.cold_hash == pairs[0].cold_hash && pair.warm_hash == pair.cold_hash;
  }
  std::vector<std::size_t> by_speedup(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) by_speedup[i] = i;
  std::sort(by_speedup.begin(), by_speedup.end(), [&pairs](std::size_t a, std::size_t b) {
    return pairs[a].speedup() < pairs[b].speedup();
  });
  const std::size_t median_pair = by_speedup[by_speedup.size() / 2];
  const RestartPair& median = pairs[median_pair];
  const double speedup = median.speedup();

  bench::Table table({"pair", "cold construct", "cold bootstrap", "warm construct",
                      "warm bootstrap", "speedup", "warm from cache", "fault hash"});
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const RestartPair& pair = pairs[i];
    table.row({std::to_string(i), fmt(pair.cold_construct_ms) + " ms",
               fmt(pair.cold_bootstrap_ms) + " ms", fmt(pair.warm_construct_ms) + " ms",
               fmt(pair.warm_bootstrap_ms) + " ms", fmt(pair.speedup(), 1) + "x",
               std::to_string(pair.warm_cells_from_cache),
               pair.warm_hash == pair.cold_hash ? hex64(pair.cold_hash) : "DIFFERS"});
  }
  table.print();
  std::printf("\nmedian warm restart speedup over %zu pairs: %.1fx (gate: >= 10x), "
              "store %zu bytes\n",
              pairs.size(), speedup, median.store_bytes);

  std::string json = "{";
  json += "\"speedup\":" + fmt(speedup, 1);
  json += ",\"median_pair\":" + std::to_string(median_pair);
  json += ",\"restart_pairs\":[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i != 0) json += ',';
    json += pair_json(pairs[i]);
  }
  json += "]";
  json += ",\"scale_routers\":500";
  json += ",\"receipt_faults_per_round\":" + std::to_string(faults);
  json += ",\"store_bytes\":" + std::to_string(median.store_bytes);
  json += ",\"warm_started\":" + std::string(warm_ok ? "true" : "false");
  json += ",\"fault_set_hash\":\"" + hex64(kReceiptHash) + "\"";
  json += ",\"fault_sets_identical\":" +
          std::string(hashes_ok && scale_hash_ok ? "true" : "false");
  json += "}";
  bench::emit_json("soak_warmstart", json);

  if (!hashes_ok) {
    std::puts("FAIL: a topology27 round's fault-set hash drifted from the receipt");
    return 1;
  }
  if (!scale_hash_ok) {
    std::puts("FAIL: internet500 rounds produced different fault bytes");
    return 1;
  }
  if (!warm_ok) {
    std::puts("FAIL: a restarted daemon did not warm-start from the store");
    return 1;
  }
  if (speedup < 10.0) {
    std::printf("FAIL: median warm restart only %.1fx faster than cold (gate: 10x)\n",
                speedup);
    return 1;
  }
  std::puts("\nexpected shape: the restarted daemon loads the store, primes its");
  std::puts("bootstrap cache, serves round-1 startup from a resume instead of a");
  std::puts("re-convergence, and reproduces the cold daemon's fault bytes exactly.");
  return 0;
}
