// dice_soakd — the resident soak daemon CLI (docs/SERVICE.md).
//
// Wraps svc::SoakService in a process: a key=value config file selects the
// scenarios and knobs, SIGINT/SIGTERM feed SoakService::request_stop()
// (an async-signal-safe atomic store, routed into the round's StopToken at
// its next safe point), and the exit path always leaves a well-formed
// final store/report/metrics trio behind.
//
//   dice_soakd <config-file>
//   dice_soakd --example-config      # print a commented template and exit
//
// Config keys (all optional; defaults in parentheses):
//   scenario             a bench scenario (explore::bench_scenario):
//                        topology27 | internet9-clean | internet9-hijack |
//                        ring6 | bad-gadget — repeatable; each line adds
//                        one scenario (topology27)
//   strategies           comma list: grammar,random,grammar-strict,concolic
//                        (grammar)
//   seeds                comma list of u64 (1)
//   workers              worker threads (2)
//   episodes_per_cell    episodes per matrix cell (2)
//   inputs_per_episode   inputs per episode (32)
//   bootstrap_events     bootstrap event budget (2000000)
//   max_rounds           stop after N rounds; 0 = run until signalled (0)
//   round_interval_ms    delay between rounds; 0 = back-to-back (1000)
//   persist_every_rounds persist cadence (1)
//   store                warm-start store path; empty = no persistence
//                        (dice_soak.dsvc)
//   report               cumulative report JSON path (dice_soak_report.json)
//   metrics              Prometheus text path (dice_soak_metrics.prom)
//   warm_start           true|false: load the store at boot (true)
//
// Numbers are unsigned decimals in range for their key; warm_start takes
// true, false, 1 or 0. Any other value exits 1 naming its line, before
// anything is built.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/soak_observer.hpp"
#include "svc/soak_service.hpp"

using namespace dice;

namespace {

svc::SoakService* g_service = nullptr;

extern "C" void handle_signal(int) {
  // Async-signal-safe: request_stop() is a relaxed atomic store. The round
  // loop notices at its next cell/episode boundary, folds the partial
  // round, persists, and exits.
  if (g_service != nullptr) g_service->request_stop();
}

struct Config {
  std::vector<std::string> scenario_names;
  std::string strategies = "grammar";
  std::vector<std::uint64_t> seeds{1};
  std::size_t workers = 2;
  std::size_t episodes_per_cell = 2;
  std::size_t inputs_per_episode = 32;
  std::uint64_t bootstrap_events = 2'000'000;
  std::size_t max_rounds = 0;
  long round_interval_ms = 1000;
  std::size_t persist_every_rounds = 1;
  std::string store = "dice_soak.dsvc";
  std::string report = "dice_soak_report.json";
  std::string metrics = "dice_soak_metrics.prom";
  bool warm_start = true;
};

[[nodiscard]] std::string trim(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

[[nodiscard]] std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses the whole of `text` as an unsigned decimal in range for T: digits
/// only, no sign, nothing after them.
template <typename T>
[[nodiscard]] bool parse_decimal(const std::string& text, T& out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  T value{};
  const char* end = text.data() + text.size();
  const auto [next, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || next != end) return false;
  out = value;
  return true;
}

[[nodiscard]] bool parse_seeds(const std::string& text, std::vector<std::uint64_t>& out) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& item : split_commas(text)) {
    if (!parse_decimal(item, seeds.emplace_back())) return false;
  }
  out = std::move(seeds);
  return true;
}

[[nodiscard]] bool parse_bool(const std::string& text, bool& out) {
  if (text == "true" || text == "1") {
    out = true;
  } else if (text == "false" || text == "0") {
    out = false;
  } else {
    return false;
  }
  return true;
}

[[nodiscard]] bool parse_config(const std::string& path, Config& config) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dice_soakd: cannot open config %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "dice_soakd: %s:%zu: expected key = value\n",
                   path.c_str(), line_no);
      return false;
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    bool valid = true;
    if (key == "scenario") config.scenario_names.push_back(value);
    else if (key == "strategies") config.strategies = value;
    else if (key == "seeds") valid = parse_seeds(value, config.seeds);
    else if (key == "workers") valid = parse_decimal(value, config.workers);
    else if (key == "episodes_per_cell") valid = parse_decimal(value, config.episodes_per_cell);
    else if (key == "inputs_per_episode") valid = parse_decimal(value, config.inputs_per_episode);
    else if (key == "bootstrap_events") valid = parse_decimal(value, config.bootstrap_events);
    else if (key == "max_rounds") valid = parse_decimal(value, config.max_rounds);
    else if (key == "round_interval_ms") valid = parse_decimal(value, config.round_interval_ms);
    else if (key == "persist_every_rounds") valid = parse_decimal(value, config.persist_every_rounds);
    else if (key == "store") config.store = value;
    else if (key == "report") config.report = value;
    else if (key == "metrics") config.metrics = value;
    else if (key == "warm_start") valid = parse_bool(value, config.warm_start);
    else {
      std::fprintf(stderr, "dice_soakd: %s:%zu: unknown key '%s'\n", path.c_str(),
                   line_no, key.c_str());
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "dice_soakd: %s:%zu: bad value '%s' for %s\n", path.c_str(),
                   line_no, value.c_str(), key.c_str());
      return false;
    }
  }
  if (config.scenario_names.empty()) config.scenario_names.push_back("topology27");
  return true;
}

[[nodiscard]] bool make_scenarios(const Config& config,
                                  std::vector<explore::ScenarioSpec>& specs) {
  for (const std::string& name : config.scenario_names) {
    std::optional<explore::ScenarioSpec> spec = explore::bench_scenario(name);
    if (!spec) {
      std::fprintf(stderr, "dice_soakd: unknown scenario '%s'\n", name.c_str());
      return false;
    }
    specs.push_back(std::move(*spec));
  }
  return true;
}

[[nodiscard]] bool make_strategies(const Config& config,
                                   std::vector<explore::StrategyKind>& kinds) {
  for (const std::string& name : split_commas(config.strategies)) {
    if (name == "grammar") kinds.push_back(explore::StrategyKind::kGrammar);
    else if (name == "random") kinds.push_back(explore::StrategyKind::kRandom);
    else if (name == "grammar-strict") kinds.push_back(explore::StrategyKind::kGrammarStrict);
    else if (name == "concolic") kinds.push_back(explore::StrategyKind::kConcolic);
    else {
      std::fprintf(stderr, "dice_soakd: unknown strategy '%s'\n", name.c_str());
      return false;
    }
  }
  return true;
}

void print_example_config() {
  std::puts("# dice_soakd config (key = value; '#' comments)");
  std::puts("scenario = topology27");
  std::puts("strategies = grammar");
  std::puts("seeds = 1");
  std::puts("workers = 2");
  std::puts("episodes_per_cell = 2");
  std::puts("inputs_per_episode = 32");
  std::puts("bootstrap_events = 2000000");
  std::puts("max_rounds = 0            # 0 = run until SIGINT/SIGTERM");
  std::puts("round_interval_ms = 1000  # 0 = rounds back-to-back");
  std::puts("persist_every_rounds = 1");
  std::puts("store = dice_soak.dsvc");
  std::puts("report = dice_soak_report.json");
  std::puts("metrics = dice_soak_metrics.prom");
  std::puts("warm_start = true");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--example-config") == 0) {
    print_example_config();
    return EXIT_SUCCESS;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: dice_soakd <config-file>\n"
                 "       dice_soakd --example-config\n");
    return EXIT_FAILURE;
  }

  Config config;
  if (!parse_config(argv[1], config)) return EXIT_FAILURE;

  std::vector<explore::ScenarioSpec> specs;
  std::vector<explore::StrategyKind> kinds;
  if (!make_scenarios(config, specs) || !make_strategies(config, kinds)) {
    return EXIT_FAILURE;
  }
  svc::SoakOptions options;
  auto built = explore::CampaignOptions::builder()
                   .strategies(kinds)
                   .seeds(config.seeds)
                   .episodes_per_cell(config.episodes_per_cell)
                   .inputs_per_episode(config.inputs_per_episode)
                   .bootstrap_events(config.bootstrap_events)
                   .parallelism(config.workers)
                   .build();
  if (!built.ok()) {
    std::fprintf(stderr, "dice_soakd: invalid campaign options (%s): %s\n",
                 built.error().code.c_str(), built.error().detail.c_str());
    return EXIT_FAILURE;
  }
  options.campaign = std::move(built).take();
  options.max_rounds = config.max_rounds;
  options.round_interval = std::chrono::milliseconds(config.round_interval_ms);
  options.persist_every_rounds = config.persist_every_rounds;
  options.store_path = config.store;
  options.report_path = config.report;
  options.metrics_path = config.metrics;
  options.warm_start = config.warm_start;
  if (const util::Status valid = options.validate(); !valid.ok()) {
    std::fprintf(stderr, "dice_soakd: invalid options (%s): %s\n",
                 valid.error().code.c_str(), valid.error().detail.c_str());
    return EXIT_FAILURE;
  }

  // The liveness-first stream becomes the daemon's log: one line per cell,
  // as it completes (wall-clock order; the canonical receipt is unmoved).
  svc::SoakObserver wall([](const explore::CellDescriptor& cell,
                            const explore::CellResult& result) {
    std::printf("cell %zu %s/%s/s%llu: %zu fault(s), bootstrap %s\n", cell.index,
                std::string(cell.scenario).c_str(),
                std::string(cell.strategy).c_str(),
                static_cast<unsigned long long>(cell.seed), result.faults,
                result.bootstrap_from_cache ? "resumed" : "converged");
    std::fflush(stdout);
  });
  options.campaign.telemetry.wall_observer = &wall;

  svc::SoakService service(std::move(specs), std::move(options));
  if (!service.store_error().code.empty()) {
    std::printf("store unusable (%s): cold start\n",
                service.store_error().code.c_str());
  } else if (service.report().warm_started) {
    std::printf("warm start: %zu live state(s) primed from %s\n",
                service.report().primed_from_store, config.store.c_str());
  }

  g_service = &service;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  service.start();
  while (service.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  service.stop();  // joins; the loop already persisted its final trio
  g_service = nullptr;

  const svc::SoakReport report = service.report();
  std::printf("soak done: %llu round(s), %zu cumulative fault(s), "
              "%llu warm bootstrap(s)\n",
              static_cast<unsigned long long>(report.rounds), report.faults.size(),
              static_cast<unsigned long long>(report.warm_starts));
  return EXIT_SUCCESS;
}
