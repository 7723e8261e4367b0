// dice_perfbench — one run of one workload of the DiCE end-to-end benchmark.
//
// DiCE explores a live federation from the side: it takes consistent
// snapshots, explores cloned systems and checks them. This driver measures
// that loop the way its users see it, on one of three closed-loop workloads
// (one caller; the next op starts when the previous one ends; 2 exploration
// workers; no shard processes; no daemon thread):
//
//   fig1-explore         op = Orchestrator::run_episode on the paper's
//                        27-router Figure 1 topology (33 clones)
//   matrix-concolic      op = one warm explore::Campaign::run over 20 cells
//   internet500-restart  op = construct svc::SoakService from its store,
//                        run_round() once, destroy (a kill-and-restart)
//
// It does not compute statistics. It writes raw samples — set-up times, op
// times, rusage, the VmHWM line, counters and spans — as one JSON object to
// --out, and perfbench/run.py turns them into metrics. With --trace 1 the
// first half of the timed phase runs untraced and the second half traced:
// spans are recorded around calls into each layer's public functions, kept
// in memory and written out at exit.
//
// Usage: dice_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       --tmp DIR --out FILE
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bgp/bugs.hpp"
#include "bgp/router.hpp"
#include "bgp/sym_update.hpp"
#include "bgp/topology.hpp"
#include "dice/inputs.hpp"
#include "dice/orchestrator.hpp"
#include "explore/campaign.hpp"
#include "explore/ledger.hpp"
#include "explore/solver_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "svc/artifact_store.hpp"
#include "svc/soak_service.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace dice;
using Clock = std::chrono::steady_clock;

/// The seed every pinned hash below was recorded at.
constexpr std::uint64_t kDefaultSeed = 1;
/// topology27 fault set after bootstrap + 2 episodes at 2 workers.
constexpr std::uint64_t kFig1Pin = 0x63f680b04458c2a9ull;
/// The 20-cell matrix's fault set (every cold and warm run).
constexpr std::uint64_t kMatrixPin = 0x794764788fb7d347ull;
/// The 500-router internet's round fault set (cold and warm).
constexpr std::uint64_t kInternet500Pin = 0xf52a15e9a9b5e89bull;

const Clock::time_point g_epoch = Clock::now();

[[nodiscard]] double us_at(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - g_epoch).count();
}

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

[[nodiscard]] double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

[[nodiscard]] std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// ---------------------------------------------------------------------------
// Spans: recorded around calls into the program's public functions, kept in
// memory, written out at exit. Every span of one op shares the op id.
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::uint64_t op = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root (the op span itself)
  std::string name;
  std::uint32_t worker = 0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Op kinds: "op" spans are timed ops and feed the per-layer table; "probe"
/// spans time one layer call outside the ops and only feed its metric.
struct OpRecord {
  std::uint64_t id = 0;
  std::string kind;
};

class SpanLog {
 public:
  std::uint64_t begin_op(std::string kind) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back({ops_.size() + 1, std::move(kind)});
    return ops_.back().id;
  }
  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void add(SpanRecord record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(record));
  }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<OpRecord>& ops() const { return ops_; }

 private:
  std::mutex mutex_;  ///< guards spans_ and ops_ (clone spans come from workers)
  std::vector<SpanRecord> spans_;
  std::vector<OpRecord> ops_;
  std::atomic<std::uint64_t> next_id_{0};
};

/// RAII span; a null log makes it a no-op, so untraced and traced runs share
/// one code path where that is convenient.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::uint64_t op, std::uint64_t parent, const char* name,
             std::size_t worker = 0)
      : log_(log), op_(op), parent_(parent), name_(name),
        worker_(static_cast<std::uint32_t>(worker)),
        id_(log != nullptr ? log->next_id() : 0), start_(Clock::now()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { end(); }

  void end() {
    if (log_ == nullptr) return;
    log_->add({op_, id_, parent_, name_, worker_, us_at(start_), us_at(Clock::now())});
    log_ = nullptr;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t op_;
  std::uint64_t parent_;
  const char* name_;
  std::uint32_t worker_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// Reads the program's own passive span trace (obs::Trace: cell, bootstrap,
/// episode, snapshot, clone) into the log under `parent`. Parents follow the
/// program's nesting: cell > {bootstrap, episode}, episode > {snapshot,
/// clone}.
void import_program_spans(SpanLog& log, obs::Trace& trace, std::uint64_t op,
                          std::uint64_t parent) {
  trace.finalize();
  const double offset_us = us_at(trace.epoch());
  std::map<std::uint32_t, std::uint64_t> cells;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t> episodes;
  for (const obs::TraceEvent& event : trace.events()) {
    const std::string_view name = event.name;
    if (name == "cell") cells[event.cell] = log.next_id();
    if (name == "episode") episodes[{event.cell, event.episode}] = log.next_id();
  }
  const auto lookup = [](const auto& map, const auto& key, std::uint64_t fallback) {
    const auto it = map.find(key);
    return it != map.end() ? it->second : fallback;
  };
  for (const obs::TraceEvent& event : trace.events()) {
    const std::string_view name = event.name;
    SpanRecord record;
    record.op = op;
    record.worker = event.worker;
    record.start_us = offset_us + event.t_start_us;
    record.end_us = record.start_us + event.dur_us;
    const std::uint64_t cell = lookup(cells, event.cell, parent);
    const std::uint64_t episode =
        lookup(episodes, std::make_pair(event.cell, event.episode), cell);
    if (name == "cell") {
      record.name = "explore.cell";
      record.id = cell;
      record.parent = parent;
    } else if (name == "episode") {
      record.name = "dice.episode";
      record.id = episode;
      record.parent = cell;
    } else {
      record.id = log.next_id();
      record.parent = name == "bootstrap" ? cell : episode;
      record.name = name == "bootstrap"  ? "dice.bootstrap"
                    : name == "snapshot" ? "dice.snapshot.take"
                    : name == "clone"    ? "dice.clone"
                                         : "program." + std::string(name);
    }
    log.add(std::move(record));
  }
}

// ---------------------------------------------------------------------------
// What one run reports (serialized to --out for run.py).
// ---------------------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<double> op_ms;         ///< untraced timed ops
  std::vector<double> traced_op_ms;  ///< traced timed ops (--trace 1)
  double timed_wall_s = 0.0;         ///< untraced timed phase
  double timed_cpu_s = 0.0;
  std::uint64_t timed_clones = 0;
  std::uint64_t ops_failed = 0;
  std::vector<Check> checks;
  std::map<std::string, double> values;                ///< per-layer scalars
  std::map<std::string, std::vector<double>> samples;  ///< per-layer sample lists
  std::string fault_hash;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// The counting, discarding log sink: keeps the expected handler-crash
/// warnings of the seeded bug off the terminal inside timed ops, and counts
/// them. The sink may run on several workers at once.
std::atomic<std::uint64_t> g_handler_crashes{0};

void install_counting_log_sink() {
  util::Log::set_sink([](util::LogLevel, std::string_view, std::string_view message) {
    if (message.find("handler crash: bug.community_length") != std::string_view::npos) {
      g_handler_crashes.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

/// Registry counter deltas over a window (the program's passive counters).
class CounterWindow {
 public:
  CounterWindow() : before_(obs::MetricsRegistry::global().snapshot()) {}
  [[nodiscard]] double delta(std::string_view name) const {
    const obs::MetricsSnapshot now = obs::MetricsRegistry::global().snapshot();
    return static_cast<double>(now.counter_value(name) - before_.counter_value(name));
  }

 private:
  obs::MetricsSnapshot before_;
};

[[nodiscard]] double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// Per-layer counters every workload reports from the untraced timed phase.
void record_counter_layers(const CounterWindow& window, std::size_t ops, Report& report) {
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  report.values["explore.pool.steals_per_op"] = window.delta(obs::names::kPoolSteals) / n;
  report.values["explore.arena.rebuilds_per_op"] =
      window.delta(obs::names::kArenaRebuilds) / n;
  report.values["bgp2.differential_checks"] =
      window.delta(obs::names::kDifferentialChecks) / n;
  const double live_hits = window.delta(obs::names::kLiveCacheHits);
  report.values["explore.live_cache.hit_ratio"] =
      ratio(live_hits, live_hits + window.delta(obs::names::kLiveCacheMisses));
  const double solver_hits = window.delta(obs::names::kSolverCacheHits);
  report.values["explore.solver_cache.hit_ratio"] =
      ratio(solver_hits, solver_hits + window.delta(obs::names::kSolverCacheMisses));
}

/// Closed loop: runs `op` back to back until `seconds` have passed (at
/// least `min_ops` times). `op` returns {ok, clones}.
template <typename Op>
std::size_t closed_loop(double seconds, std::size_t min_ops, std::vector<double>& samples,
                        Report& report, Op&& op, std::uint64_t* clones = nullptr) {
  const auto start = Clock::now();
  std::size_t ops = 0;
  while (ops < min_ops || ms_since(start) < seconds * 1000.0) {
    const auto op_start = Clock::now();
    const auto [ok, op_clones] = op();
    samples.push_back(ms_since(op_start));
    if (!ok) ++report.ops_failed;
    if (clones != nullptr) *clones += op_clones;
    ++ops;
  }
  return ops;
}

/// The untraced timed phase: op times, wall, CPU, clones and the passive
/// per-layer counters.
template <typename Op>
void timed_phase(double seconds, std::size_t min_ops, Report& report, Op&& op) {
  const CounterWindow window;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  const std::size_t ops =
      closed_loop(seconds, min_ops, report.op_ms, report, op, &report.timed_clones);
  report.timed_wall_s = ms_since(start) / 1000.0;
  report.timed_cpu_s = cpu_seconds() - cpu_start;
  record_counter_layers(window, ops, report);
}

template <typename Setup>
void repeated_setup(std::size_t times, Report& report, Setup&& setup) {
  for (std::size_t i = 0; i < times; ++i) {
    const auto start = Clock::now();
    setup(i + 1 == times);
    report.setup_s.push_back(ms_since(start) / 1000.0);
  }
}

// ---------------------------------------------------------------------------
// fig1-explore
// ---------------------------------------------------------------------------

[[nodiscard]] bgp::SystemBlueprint fig1_blueprint() {
  bgp::SystemBlueprint blueprint = bgp::make_internet();  // 27 routers
  bgp::inject_hijack(blueprint, /*victim=*/12, /*attacker=*/20, /*more_specific=*/true);
  bgp::inject_bug(blueprint, /*node=*/5, bgp::bugs::kCommunityLength);
  return blueprint;
}

[[nodiscard]] core::DiceOptions fig1_options() {
  core::DiceOptions options = explore::CampaignOptions::builder()
                                  .inputs_per_episode(32)
                                  .build()
                                  .take()
                                  .to_dice_options();
  options.parallelism = 2;  // single-system harness: a private 2-worker pool
  return options;
}

/// Cumulative, globally deduplicated fault list — Orchestrator::all_faults'
/// rule, for the replay below.
class FaultList {
 public:
  void add(std::vector<core::FaultReport> episode_faults) {
    for (core::FaultReport& fault : episode_faults) {
      if (keys_.insert(core::fault_key(fault)).second) faults_.push_back(std::move(fault));
    }
  }
  [[nodiscard]] std::uint64_t hash() const { return svc::fault_set_hash(faults_); }

 private:
  std::vector<core::FaultReport> faults_;
  std::unordered_set<std::uint64_t> keys_;
};

/// One episode, driven through the same public calls Orchestrator::
/// run_episode makes (next_explorer, take_snapshot, prepare_snapshot, the
/// strategy, then an ExplorePool batch whose task body resets, injects,
/// converges and checks a per-worker System), with a span around each call.
/// It must reproduce the orchestrator's fault set, which proves it did the
/// same work.
class Fig1Replay {
 public:
  Fig1Replay(std::uint64_t strategy_seed, std::size_t workers)
      : options_(fig1_options()),
        orchestrator_(fig1_blueprint(), serial(options_)),
        strategy_(/*corruption_rate=*/0.05, strategy_seed),
        pool_(workers) {
    for (std::size_t w = 0; w < workers; ++w) {
      systems_.push_back(std::make_unique<core::System>(orchestrator_.live().prototype()));
    }
  }

  struct EpisodeStats {
    bool ok = false;
    std::size_t clones = 0;
    std::uint64_t events = 0;
    std::uint64_t decodes_in_clones = 0;
    std::size_t cut_bytes = 0;
    std::size_t delta_nodes = 0;
    std::size_t nodes = 0;
  };

  void bootstrap(SpanLog* log, std::uint64_t op) {
    ScopedSpan span(log, op, 0, "dice.bootstrap");
    (void)orchestrator_.bootstrap();
  }

  EpisodeStats run_episode(SpanLog* log, std::uint64_t op) {
    EpisodeStats stats;
    ScopedSpan root(log, op, 0, "op");
    const std::uint64_t episode = ++episodes_;
    const sim::NodeId explorer = orchestrator_.next_explorer();
    core::System& live = orchestrator_.live();

    snapshot::SnapshotId id = 0;
    {
      ScopedSpan span(log, op, root.id(), "dice.snapshot.take");
      id = live.take_snapshot(explorer);
    }
    if (id == 0) return stats;
    const snapshot::Snapshot* snap = live.snapshots().find(id);
    stats.cut_bytes = snap->total_state_bytes();
    stats.nodes = snap->nodes.size();
    for (const auto& [node, checkpoint] : snap->nodes) {
      if (checkpoint.state.size() == 1 &&
          checkpoint.state[0] == snapshot::kCheckpointSameAsBaseline) {
        ++stats.delta_nodes;
      }
    }
    std::shared_ptr<const snapshot::PreparedSnapshot> prepared;
    {
      ScopedSpan span(log, op, root.id(), "dice.snapshot.prepare");
      prepared = live.prepare_snapshot(id);
    }
    if (prepared == nullptr) return stats;

    std::vector<util::Bytes> inputs;
    {
      ScopedSpan span(log, op, root.id(), "dice.inputs");
      strategy_.on_episode(live, explorer);
      inputs = strategy_.next_batch(options_.inputs_per_episode);
    }
    const std::vector<sim::NodeId> neighbors = live.network().neighbors(explorer);

    // Task 0 is the baseline clone (no input), then one task per input:
    // the orchestrator's serial encounter order, and the ledger priority.
    const std::size_t count = 1 + inputs.size();
    std::vector<unsigned char> ran(count, 0);
    std::vector<std::uint64_t> events(count, 0);
    explore::FaultLedger ledger;
    const std::uint64_t flip_exit =
        options_.oscillation_early_exit ? options_.oscillation_threshold : 0;
    const std::uint64_t decodes_before = bgp::checkpoint_decode_count();
    {
      ScopedSpan batch(log, op, root.id(), "explore.batch");
      pool_.run_batch(count, [&](std::size_t index, std::size_t worker) {
        ScopedSpan clone_span(log, op, batch.id(), "dice.clone", worker);
        core::System& clone = *systems_[worker];
        util::Status status;
        {
          ScopedSpan span(log, op, clone_span.id(), "dice.clone.reset", worker);
          status = clone.reset_from(*prepared);
        }
        if (!status) return;
        for (std::size_t i = 0; i < clone.size(); ++i) {
          clone.router(static_cast<sim::NodeId>(i)).reset_flip_counters();
        }
        const util::Bytes no_input;
        const util::Bytes& input = index == 0 ? no_input : inputs[index - 1];
        core::System::ConvergeOutcome outcome;
        {
          ScopedSpan span(log, op, clone_span.id(), "dice.clone.converge", worker);
          if (index > 0 && !neighbors.empty()) {
            clone.inject_message(neighbors[(index - 1) % neighbors.size()], explorer,
                                 bgp::wrap_update_body(input));
          }
          outcome = clone.converge_bounded(options_.clone_event_budget,
                                           options_.clone_time_budget,
                                           static_cast<std::uint32_t>(flip_exit));
        }
        events[index] = clone.simulator().executed();
        std::vector<core::FaultReport> faults;
        {
          ScopedSpan span(log, op, clone_span.id(), "dice.clone.check", worker);
          faults = orchestrator_.check_system(clone, episode, explorer, input,
                                              outcome.quiesced);
        }
        ledger.record_all(std::move(faults), static_cast<std::uint64_t>(index) << 32);
        ran[index] = 1;
      });
    }
    stats.decodes_in_clones = bgp::checkpoint_decode_count() - decodes_before;
    live.snapshots().trim(1);
    faults_.add(ledger.snapshot_sorted());
    for (std::size_t i = 0; i < count; ++i) {
      stats.clones += ran[i];
      stats.events += events[i];
    }
    stats.ok = stats.clones == count;
    return stats;
  }

  [[nodiscard]] std::uint64_t fault_hash() const { return faults_.hash(); }

 private:
  [[nodiscard]] static core::DiceOptions serial(core::DiceOptions options) {
    options.parallelism = 1;  // the replay owns the batch pool below
    return options;
  }

  core::DiceOptions options_;
  core::Orchestrator orchestrator_;
  core::GrammarStrategy strategy_;
  explore::ExplorePool pool_;
  std::vector<std::unique_ptr<core::System>> systems_;  ///< one per pool worker
  std::uint64_t episodes_ = 0;
  FaultList faults_;
};

void run_fig1(std::uint64_t seed, double seconds, bool traced, SpanLog& log, Report& report) {
  const std::uint64_t strategy_seed = 0xf1f1 + (seed - kDefaultSeed);
  const core::DiceOptions options = fig1_options();
  constexpr std::size_t kWarmupEpisodes = 2;
  constexpr std::size_t kRotationEpisodes = 27;
  constexpr std::size_t kClonesPerEpisode = 33;

  std::unique_ptr<core::Orchestrator> dice;
  std::unique_ptr<core::GrammarStrategy> strategy;
  std::uint64_t warm_hash = 0;
  repeated_setup(5, report, [&](bool) {
    dice.reset();
    dice = std::make_unique<core::Orchestrator>(fig1_blueprint(), options);
    strategy = std::make_unique<core::GrammarStrategy>(0.05, strategy_seed);
    const auto boot = Clock::now();
    (void)dice->bootstrap();
    report.samples["dice.bootstrap_ms"].push_back(ms_since(boot));
    for (std::size_t i = 0; i < kWarmupEpisodes; ++i) (void)dice->run_episode(*strategy);
    const std::uint64_t hash = svc::fault_set_hash(dice->all_faults());
    if (warm_hash != 0 && hash != warm_hash) {
      report.check("fig1.setup_repeatable", false, hex64(hash) + " != " + hex64(warm_hash));
    }
    warm_hash = hash;
  });
  report.fault_hash = hex64(warm_hash);
  if (seed == kDefaultSeed) {
    report.check("fig1.pinned_hash", warm_hash == kFig1Pin,
                 hex64(warm_hash) + " vs pin " + hex64(kFig1Pin));
  }

  // The replay reproduces the warm-up through public calls (the traced-vs-
  // untraced hash receipt at every seed, and the decodes-per-clone gate),
  // then finishes one explorer rotation: the seeded bug sits on node 5, so
  // its handler crashes only show once node 5 has explored.
  Fig1Replay replay(strategy_seed, options.parallelism);
  SpanLog* replay_log = traced ? &log : nullptr;
  const std::uint64_t warm_op = traced ? log.begin_op("probe") : 0;
  replay.bootstrap(replay_log, warm_op);
  std::uint64_t decodes = 0;
  std::size_t clones = 0;
  std::uint64_t replay_hash = 0;
  const std::uint64_t crashes_before = g_handler_crashes.load();
  for (std::size_t i = 0; i < kRotationEpisodes; ++i) {
    const Fig1Replay::EpisodeStats stats = replay.run_episode(nullptr, 0);
    decodes += stats.decodes_in_clones;
    clones += stats.clones;
    if (i + 1 == kWarmupEpisodes) replay_hash = replay.fault_hash();
  }
  report.values["bgp.handler_crashes"] =
      static_cast<double>(g_handler_crashes.load() - crashes_before);
  report.check("fig1.replay_hash", replay_hash == warm_hash,
               hex64(replay_hash) + " vs " + hex64(warm_hash));

  const auto episode_op = [&]() -> std::pair<bool, std::size_t> {
    const core::EpisodeResult episode = dice->run_episode(*strategy);
    const bool ok = episode.snapshot_id != 0 && !episode.interrupted &&
                    episode.clones_run == kClonesPerEpisode;
    return {ok, episode.clones_run};
  };
  timed_phase(traced ? seconds / 2 : seconds, 3, report, episode_op);

  if (traced) {
    std::uint64_t events = 0;
    std::size_t delta_nodes = 0;
    std::size_t nodes = 0;
    closed_loop(seconds / 2, 3, report.traced_op_ms, report, [&]() -> std::pair<bool, std::size_t> {
      const Fig1Replay::EpisodeStats stats = replay.run_episode(&log, log.begin_op("op"));
      decodes += stats.decodes_in_clones;
      clones += stats.clones;
      events += stats.events;
      delta_nodes += stats.delta_nodes;
      nodes += stats.nodes;
      report.samples["snapshot.cut_bytes"].push_back(static_cast<double>(stats.cut_bytes));
      return {stats.ok && stats.clones == kClonesPerEpisode, stats.clones};
    });
    report.values["dice.clone.events"] = ratio(static_cast<double>(events),
                                               static_cast<double>(clones));
    report.values["snapshot.delta_node_ratio"] =
        ratio(static_cast<double>(delta_nodes), static_cast<double>(nodes));
  }
  report.values["snapshot.decodes_per_clone"] =
      ratio(static_cast<double>(decodes), static_cast<double>(clones));
  report.check("fig1.zero_decodes_per_clone", decodes == 0 && clones > 0,
               std::to_string(decodes) + " decodes over " + std::to_string(clones) +
                   " clones");
}

// ---------------------------------------------------------------------------
// matrix-concolic
// ---------------------------------------------------------------------------

/// The matrix runs at one fixed campaign seed whatever --seed says: the
/// concolic cells' solver work depends on their seed by up to 3x (0.9-2.9 s
/// per warm run over seeds 11-15), which would swamp any regression bound.
constexpr std::uint64_t kMatrixCampaignSeed = kDefaultSeed;

[[nodiscard]] explore::CampaignOptions matrix_options(obs::Trace* trace) {
  return explore::CampaignOptions::builder()
      .strategies({explore::StrategyKind::kConcolic, explore::StrategyKind::kGrammar})
      .seeds({kMatrixCampaignSeed})
      .implementations({"", "fsm"})
      .episodes_per_cell(1)
      .inputs_per_episode(16)
      .parallelism(2)
      .nested(true)
      .trace(trace)
      .build()
      .take();
}

/// Forwarding strategy: times the wrapped strategy's input generation.
class TimedStrategy final : public core::InputStrategy {
 public:
  explicit TimedStrategy(core::InputStrategy& inner) : inner_(inner) {}
  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  void on_episode(const core::System& live, sim::NodeId explorer) override {
    const auto start = Clock::now();
    inner_.on_episode(live, explorer);
    ms_ += ms_since(start);
  }
  [[nodiscard]] std::vector<util::Bytes> next_batch(std::size_t n) override {
    const auto start = Clock::now();
    std::vector<util::Bytes> batch = inner_.next_batch(n);
    ms_ += ms_since(start);
    return batch;
  }
  [[nodiscard]] double ms() const noexcept { return ms_; }

 private:
  core::InputStrategy& inner_;
  double ms_ = 0.0;
};

/// Replays every concolic cell of `campaign` serially on its own
/// orchestrator with the cell's derived seeds (the matrix's rule), timing
/// input generation through TimedStrategy. Returns the summed generation
/// time, or nullopt when a replayed cell's fault count differs from the
/// matrix's.
[[nodiscard]] std::optional<double> replay_concolic_cells(
    const explore::Campaign& campaign, const explore::CampaignResult& result) {
  const explore::MatrixOptions matrix = campaign.options().to_matrix_options();
  const std::vector<explore::CellIdentity> cells =
      explore::enumerate_cells(campaign.matrix().scenarios().size(), matrix);
  double total_ms = 0.0;
  for (std::size_t index = 0; index < cells.size(); ++index) {
    const explore::CellIdentity& cell = cells[index];
    if (cell.strategy != explore::StrategyKind::kConcolic) continue;
    core::DiceOptions dice = matrix.dice;
    dice.parallelism = 1;
    dice.rng_seed = util::Rng(cell.seed).fork(2 * index).next();
    core::Orchestrator orchestrator(
        campaign.matrix().prototypes()[cell.scenario * matrix.implementations.size() +
                                       cell.impl_pos],
        dice);
    (void)orchestrator.bootstrap(matrix.bootstrap_events);
    explore::SolverCache cache;
    core::ConcolicStrategy::Options concolic;
    concolic.rng_seed = util::Rng(cell.seed).fork(2 * index + 1).next();
    concolic.solver_memo = &cache;
    core::ConcolicStrategy inner(concolic);
    TimedStrategy timed(inner);
    for (std::size_t e = 0; e < matrix.episodes_per_cell; ++e) {
      (void)orchestrator.run_episode(timed);
    }
    if (orchestrator.all_faults().size() != result.cells[index].faults) return std::nullopt;
    total_ms += timed.ms();
  }
  return total_ms;
}

void run_matrix(double seconds, bool traced, SpanLog& log, Report& report) {
  constexpr std::size_t kCells = 20;
  std::unique_ptr<explore::Campaign> campaign;
  std::uint64_t cold_hash = 0;
  const auto record_run = [&](const explore::CampaignResult& result) {
    const std::uint64_t hash = svc::fault_set_hash(result.faults);
    return std::make_pair(
        result.cells_completed == kCells && hash == cold_hash && hash == kMatrixPin, hash);
  };
  repeated_setup(3, report, [&](bool last) {
    campaign.reset();
    const std::uint64_t crashes_before = g_handler_crashes.load();
    campaign = std::make_unique<explore::Campaign>(explore::default_bench_scenarios(),
                                                   matrix_options(nullptr));
    const explore::CampaignResult cold = campaign->run();
    double bootstrap_ms = 0.0;
    for (const explore::CellResult& cell : cold.cells) bootstrap_ms += cell.bootstrap_ms;
    report.samples["dice.bootstrap_ms"].push_back(bootstrap_ms);
    const std::uint64_t hash = svc::fault_set_hash(cold.faults);
    if (cold.cells_completed != kCells) {
      report.check("matrix.cold_cells_completed", false,
                   std::to_string(cold.cells_completed) + " cells");
    }
    if (cold_hash != 0 && hash != cold_hash) {
      report.check("matrix.setup_repeatable", false, hex64(hash) + " != " + hex64(cold_hash));
    }
    cold_hash = hash;
    if (last) {
      report.values["bgp.handler_crashes"] =
          static_cast<double>(g_handler_crashes.load() - crashes_before);
    }
  });
  report.fault_hash = hex64(cold_hash);
  {
    report.check("matrix.pinned_hash", cold_hash == kMatrixPin,
                 hex64(cold_hash) + " vs pin " + hex64(kMatrixPin));
  }

  const auto warm_run = [&](explore::Campaign& target) {
    const explore::CampaignResult result = target.run();
    std::size_t clones = 0;
    for (const explore::CellResult& cell : result.cells) {
      clones += cell.clones_run;
      report.samples["explore.cell_ms"].push_back(cell.wall_ms);
    }
    const double queries =
        static_cast<double>(result.solver_cache.hits + result.solver_cache.misses);
    report.samples["concolic.queries"].push_back(queries);
    report.samples["concolic.unsat_ratio"].push_back(
        ratio(static_cast<double>(result.solver_cache.entries -
                                  result.solver_cache.sat_entries),
              static_cast<double>(result.solver_cache.entries)));
    return std::make_pair(record_run(result).first, clones);
  };
  timed_phase(traced ? seconds / 2 : seconds, 3, report, [&] { return warm_run(*campaign); });
  if (!traced) return;

  // The traced campaign: the program's passive span trace is attached, its
  // cold run is a probe, and its warm runs are the traced ops.
  obs::Trace trace(/*lanes=*/8, /*lane_capacity=*/8192);
  explore::Campaign traced_campaign(explore::default_bench_scenarios(),
                                    matrix_options(&trace));
  {
    const std::uint64_t probe = log.begin_op("probe");
    ScopedSpan root(&log, probe, 0, "explore.run");
    const explore::CampaignResult cold = traced_campaign.run();
    root.end();
    import_program_spans(log, trace, probe, root.id());
    report.check("matrix.traced_hash", svc::fault_set_hash(cold.faults) == cold_hash,
                 hex64(svc::fault_set_hash(cold.faults)) + " vs " + hex64(cold_hash));
    const std::optional<double> input_ms = replay_concolic_cells(traced_campaign, cold);
    report.check("matrix.concolic_replay", input_ms.has_value());
    report.values["concolic.input_gen_ms"] = input_ms.value_or(0.0);
  }
  closed_loop(seconds / 2, 2, report.traced_op_ms, report, [&]() -> std::pair<bool, std::size_t> {
    const std::uint64_t op = log.begin_op("op");
    ScopedSpan root(&log, op, 0, "op");
    auto [ok, clones] = warm_run(traced_campaign);
    root.end();
    import_program_spans(log, trace, op, root.id());
    return {ok, clones};
  });
}

// ---------------------------------------------------------------------------
// internet500-restart
// ---------------------------------------------------------------------------

[[nodiscard]] bgp::SystemBlueprint internet500_blueprint() {
  bgp::InternetTopologyParams params;
  params.tier1 = 5;
  params.tier2 = 45;
  params.stubs = 450;
  params.originate_every = 4;
  return bgp::make_internet(params);
}

[[nodiscard]] std::vector<explore::ScenarioSpec> internet500_scenarios() {
  std::vector<explore::ScenarioSpec> specs;
  specs.push_back({"internet500", internet500_blueprint()});
  return specs;
}

[[nodiscard]] svc::SoakOptions internet500_options(std::uint64_t seed,
                                                   const std::string& store_path,
                                                   obs::Trace* trace) {
  svc::SoakOptions options;
  options.campaign = explore::CampaignOptions::builder()
                         .strategies({explore::StrategyKind::kGrammar})
                         .seeds({seed})
                         .episodes_per_cell(1)
                         .inputs_per_episode(2)
                         .bootstrap_events(20'000'000)
                         .clone_event_budget(60'000)
                         .parallelism(2)
                         .trace(trace)
                         .build()
                         .take();
  options.store_path = store_path;
  return options;
}

[[nodiscard]] util::Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return util::Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void run_internet500(std::uint64_t seed, double seconds, bool traced, SpanLog& log,
                     Report& report, const std::string& tmp) {
  const std::string store = tmp + "/internet500.dsvc";
  std::uint64_t cold_hash = 0;
  repeated_setup(3, report, [&](bool last) {
    std::remove(store.c_str());
    const std::uint64_t crashes_before = g_handler_crashes.load();
    std::optional<svc::SoakService> service;
    service.emplace(internet500_scenarios(), internet500_options(seed, store, nullptr));
    const svc::RoundSummary cold = service->run_round();
    service.reset();
    malloc_trim(0);
    report.samples["dice.bootstrap_ms"].push_back(cold.bootstrap_ms);
    if (cold.cells_completed != 1 || cold.stopped) {
      report.check("internet500.cold_round", false);
    }
    if (cold_hash != 0 && cold.fault_hash != cold_hash) {
      report.check("internet500.setup_repeatable", false,
                   hex64(cold.fault_hash) + " != " + hex64(cold_hash));
    }
    cold_hash = cold.fault_hash;
    if (last) {
      report.values["bgp.handler_crashes"] =
          static_cast<double>(g_handler_crashes.load() - crashes_before);
    }
  });
  report.fault_hash = hex64(cold_hash);
  if (seed == kDefaultSeed) {
    report.check("internet500.pinned_hash", cold_hash == kInternet500Pin,
                 hex64(cold_hash) + " vs pin " + hex64(kInternet500Pin));
  }
  report.values["svc.store.bytes"] = static_cast<double>(read_file(store).size());

  // One kill-and-restart. The op succeeds when the service warm-started from
  // the store, served its one cell from the cache and reproduced the cold
  // round's fault set.
  const auto restart = [&](obs::Trace* trace, SpanLog* span_log,
                           std::uint64_t op) -> std::pair<bool, std::size_t> {
    ScopedSpan root(span_log, op, 0, "op");
    std::optional<svc::SoakService> service;
    {
      ScopedSpan span(span_log, op, root.id(), "svc.construct");
      service.emplace(internet500_scenarios(), internet500_options(seed, store, trace));
    }
    const bool warm = service->report().warm_started;
    svc::RoundSummary round;
    {
      ScopedSpan span(span_log, op, root.id(), "svc.round");
      round = service->run_round();
      span.end();
      if (span_log != nullptr) import_program_spans(*span_log, *trace, op, span.id());
    }
    report.samples["svc.resume_ms"].push_back(round.bootstrap_ms);
    {
      // A killed daemon hands all its memory back to the system; the
      // in-process stand-in returns the freed heap too, so one restart's
      // fragmentation does not inflate the next one's footprint.
      ScopedSpan span(span_log, op, root.id(), "svc.destroy");
      service.reset();
      malloc_trim(0);
    }
    const bool ok = warm && round.cells_from_cache == 1 && round.cells_completed == 1 &&
                    round.fault_hash == cold_hash;
    // Clones = the inputs plus the baseline clone of the one episode.
    return {ok, 3};
  };
  timed_phase(traced ? seconds / 2 : seconds, 3, report,
              [&] { return restart(nullptr, nullptr, 0); });
  if (!traced) return;

  obs::Trace trace(/*lanes=*/8, /*lane_capacity=*/4096);
  closed_loop(seconds / 2, 2, report.traced_op_ms, report,
              [&] { return restart(&trace, &log, log.begin_op("op")); });

  // Probes: the layer calls a warm restart makes inside the program, timed
  // one by one on the stored cut — store decode, fused raw restore, a
  // full-cut snapshot and its prepare — plus one explicit persist.
  const auto prototype = std::make_shared<const core::SystemPrototype>(internet500_blueprint());
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t op = log.begin_op("probe");
    const util::Bytes bytes = read_file(store);
    std::optional<svc::StoreContents> contents;
    {
      ScopedSpan span(&log, op, 0, "svc.store.decode");
      auto decoded = svc::ArtifactStore::decode(bytes);
      if (decoded.ok()) contents = std::move(decoded).take();
    }
    if (!contents.has_value() || contents->live_states.size() != 1) {
      report.check("internet500.store_decode", false);
      return;
    }
    const svc::LiveStateArtifact& artifact = contents->live_states.front();
    core::System system(prototype);
    util::Status restored;
    {
      ScopedSpan span(&log, op, 0, "bgp.restore_raw");
      restored = system.reset_from_raw(artifact.snap, artifact.resume_at);
    }
    if (!restored) {
      report.check("internet500.restore_raw", false, restored.error().to_string());
      return;
    }
    system.set_delta_checkpoints(true);
    snapshot::SnapshotId id = 0;
    {
      ScopedSpan span(&log, op, 0, "dice.snapshot.take");
      id = system.take_snapshot(0);
    }
    const snapshot::Snapshot* snap = system.snapshots().find(id);
    if (snap == nullptr) {
      report.check("internet500.snapshot", false);
      return;
    }
    report.samples["snapshot.cut_bytes"].push_back(
        static_cast<double>(snap->total_state_bytes()));
    std::size_t delta_nodes = 0;
    for (const auto& [node, checkpoint] : snap->nodes) {
      delta_nodes += checkpoint.state.size() == 1 &&
                     checkpoint.state[0] == snapshot::kCheckpointSameAsBaseline;
    }
    report.values["snapshot.delta_node_ratio"] =
        ratio(static_cast<double>(delta_nodes), static_cast<double>(snap->nodes.size()));
    std::shared_ptr<const snapshot::PreparedSnapshot> prepared;
    {
      ScopedSpan span(&log, op, 0, "dice.snapshot.prepare");
      prepared = system.prepare_snapshot(id);
    }
    svc::SoakService service(internet500_scenarios(), internet500_options(seed, store, nullptr));
    util::Status persisted;
    {
      ScopedSpan span(&log, op, 0, "svc.persist");
      persisted = service.persist();
    }
    if (prepared == nullptr || !persisted) {
      report.check("internet500.probe", false, prepared == nullptr ? "prepare failed"
                                                                    : persisted.error().to_string());
      return;
    }
  }
  report.check("internet500.probes", true);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

[[nodiscard]] std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

[[nodiscard]] std::string json_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

[[nodiscard]] std::string json_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(values[i]);
  }
  return out + "]";
}

/// The process's peak resident set line from /proc/self/status, verbatim
/// ("VmHWM:   123456 kB"); run.py parses it.
[[nodiscard]] std::string vmhwm_line() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return line;
  }
  return {};
}

[[nodiscard]] std::string to_json(const std::string& workload, std::uint64_t seed,
                                  bool traced, const Report& report, const SpanLog& log) {
  std::string out = "{\"workload\":" + json_string(workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"trace\":" + std::string(traced ? "true" : "false");
  out += ",\"fault_hash\":" + json_string(report.fault_hash);
  out += ",\"setup_s\":" + json_list(report.setup_s);
  out += ",\"op_ms\":" + json_list(report.op_ms);
  out += ",\"traced_op_ms\":" + json_list(report.traced_op_ms);
  out += ",\"timed_wall_s\":" + json_number(report.timed_wall_s);
  out += ",\"timed_cpu_s\":" + json_number(report.timed_cpu_s);
  out += ",\"timed_clones\":" + std::to_string(report.timed_clones);
  out += ",\"ops_failed\":" + std::to_string(report.ops_failed);
  out += ",\"vmhwm\":" + json_string(vmhwm_line());
  out += ",\"checks\":[";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const Check& check = report.checks[i];
    if (i > 0) out += ',';
    out += "{\"name\":" + json_string(check.name) +
           ",\"ok\":" + (check.ok ? "true" : "false") +
           ",\"detail\":" + json_string(check.detail) + "}";
  }
  out += "],\"values\":{";
  bool first = true;
  for (const auto& [name, value] : report.values) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
    first = false;
  }
  out += "},\"samples\":{";
  first = true;
  for (const auto& [name, values] : report.samples) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_list(values);
    first = false;
  }
  out += "},\"ops\":[";
  for (std::size_t i = 0; i < log.ops().size(); ++i) {
    const OpRecord& op = log.ops()[i];
    if (i > 0) out += ',';
    out += "[" + std::to_string(op.id) + "," + json_string(op.kind) + "]";
  }
  // Spans as rows: [op, id, parent, name, worker, start_us, end_us].
  out += "],\"spans\":[";
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    const SpanRecord& span = log.spans()[i];
    if (i > 0) out += ',';
    out += "[" + std::to_string(span.op) + "," + std::to_string(span.id) + "," +
           std::to_string(span.parent) + "," + json_string(span.name) + "," +
           std::to_string(span.worker) + "," + json_number(span.start_us) + "," +
           json_number(span.end_us) + "]";
  }
  return out + "]}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp;
  std::string out;
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--tmp") {
      args.tmp = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.tmp.empty() || args.out.empty() ||
      args.seconds <= 0) {
    return std::nullopt;
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: dice_perfbench --workload fig1-explore|matrix-concolic|"
                 "internet500-restart --seed N --seconds S --trace 0|1 --tmp DIR "
                 "--out FILE\n");
    return 2;
  }
  install_counting_log_sink();
  Report report;
  SpanLog log;
  try {
    if (args->workload == "fig1-explore") {
      run_fig1(args->seed, args->seconds, args->trace, log, report);
    } else if (args->workload == "matrix-concolic") {
      run_matrix(args->seconds, args->trace, log, report);
    } else if (args->workload == "internet500-restart") {
      run_internet500(args->seed, args->seconds, args->trace, log, report, args->tmp);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "workload %s failed: %s\n", args->workload.c_str(), error.what());
    return 1;
  }
  std::ofstream out(args->out);
  out << to_json(args->workload, args->seed, args->trace, report, log) << '\n';
  return out.good() ? 0 : 1;
}
