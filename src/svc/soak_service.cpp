#include "svc/soak_service.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "snapshot/live_state.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace dice::svc {

namespace {

const util::Logger& logger() {
  static util::Logger instance("svc");
  return instance;
}

struct SvcMetrics {
  obs::Counter& rounds;
  obs::Counter& warm_starts;
};

[[nodiscard]] SvcMetrics& svc_metrics() {
  static SvcMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kSvcRounds),
      obs::MetricsRegistry::global().counter(obs::names::kSvcWarmStarts)};
  return metrics;
}

constexpr std::size_t kNoPrototype = static_cast<std::size_t>(-1);

/// Canonical-stream capture used to fold a round into the service ledger
/// WITH cell identity: result.faults alone cannot distinguish two
/// content-identical faults from different cells (the matrix's own ledger
/// salts per cell), so the fold replays the same per-cell salting.
struct FoldObserver final : explore::CampaignObserver {
  struct Item {
    std::size_t cell = 0;
    core::FaultReport fault;
  };
  std::vector<Item> items;

  void on_fault(const explore::CellDescriptor& cell,
                const core::FaultReport& fault) override {
    items.push_back(Item{cell.index, fault});
  }
};

[[nodiscard]] std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buf);
}

[[nodiscard]] std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[nodiscard]] util::Status write_text_atomic(const std::string& path,
                                             const std::string& text,
                                             const char* code) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return util::make_error(code, "cannot open " + tmp + " for writing");
    out << text;
    out.flush();
    if (!out) return util::make_error(code, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::make_error(code, "cannot rename " + tmp + " over " + path);
  }
  return util::Status::success();
}

/// Cross-product prototype index for a stored key under the campaign, or
/// kNoPrototype when its options do not produce that key (a store written
/// under other options).
[[nodiscard]] std::size_t prototype_index(const explore::ScenarioMatrix& matrix,
                                          const WarmKey& key) {
  const std::vector<explore::ScenarioSpec>& specs = matrix.scenarios();
  const std::vector<std::string>& impls = matrix.options().implementations;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    if (specs[s].name != key.scenario) continue;
    for (std::size_t p = 0; p < impls.size(); ++p) {
      if (impls[p] == key.implementation) return s * impls.size() + p;
    }
  }
  return kNoPrototype;
}

/// `options` with the warm-continuity wiring: the campaign reads and feeds
/// the service-owned bootstrap cache and UNSAT memo.
[[nodiscard]] explore::CampaignOptions wire_caches(explore::CampaignOptions options,
                                                   explore::LiveStateCache* cache,
                                                   const std::vector<std::uint64_t>* unsat) {
  options.caching.live_cache = cache;
  options.caching.unsat_seed = unsat;
  return options;
}

}  // namespace

std::uint64_t fault_set_hash(const std::vector<core::FaultReport>& faults) {
  std::uint64_t h = util::kFnvOffset;
  for (const core::FaultReport& fault : faults) {
    h = util::fnv1a(fault.to_string(), h);
  }
  return util::hash_finalize(h);
}

util::Status SoakOptions::validate() const {
  if (persist_every_rounds == 0) {
    return util::make_error("svc.options.zero_persist_cadence",
                            "persist_every_rounds must be >= 1");
  }
  if (round_interval.count() < 0) {
    return util::make_error("svc.options.negative_interval",
                            "round_interval cannot be negative");
  }
  return campaign.validate();
}

std::string SoakReport::to_json() const {
  std::string out = "{";
  out += "\"rounds\":" + std::to_string(rounds);
  out += ",\"warm_starts\":" + std::to_string(warm_starts);
  out += ",\"primed_from_store\":" + std::to_string(primed_from_store);
  out += std::string(",\"warm_started\":") + (warm_started ? "true" : "false");
  out += ",\"round_summaries_dropped\":" + std::to_string(round_summaries_dropped);
  out += ",\"round_summaries\":[";
  for (std::size_t i = 0; i < round_summaries.size(); ++i) {
    const RoundSummary& summary = round_summaries[i];
    if (i != 0) out += ',';
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.3f", summary.wall_ms);
    out += "{\"round\":" + std::to_string(summary.round);
    out += ",\"cells_completed\":" + std::to_string(summary.cells_completed);
    out += ",\"cells_from_cache\":" + std::to_string(summary.cells_from_cache);
    char bootstrap[32];
    std::snprintf(bootstrap, sizeof(bootstrap), "%.3f", summary.bootstrap_ms);
    out += ",\"bootstrap_ms\":" + std::string(bootstrap);
    out += ",\"faults\":" + std::to_string(summary.faults);
    out += ",\"new_faults\":" + std::to_string(summary.new_faults);
    out += ",\"fault_hash\":\"" + hex64(summary.fault_hash) + '"';
    out += std::string(",\"stopped\":") + (summary.stopped ? "true" : "false");
    out += ",\"wall_ms\":" + std::string(wall) + '}';
  }
  out += "],\"faults\":[";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const core::FaultReport& fault = faults[i];
    if (i != 0) out += ',';
    out += "{\"class\":\"" + json_escape(core::to_string(fault.fault_class)) + '"';
    out += ",\"check\":\"" + json_escape(fault.check) + '"';
    out += ",\"node\":" + std::to_string(fault.node);
    out += ",\"episode\":" + std::to_string(fault.episode);
    out += std::string(",\"potential\":") + (fault.potential ? "true" : "false");
    out += ",\"description\":\"" + json_escape(fault.description) + "\"}";
  }
  out += "]}";
  return out;
}

SoakService::SoakService(std::vector<explore::ScenarioSpec> scenarios,
                         SoakOptions options)
    : options_(std::move(options)),
      campaign_(std::move(scenarios), wire_caches(options_.campaign, &cache_, &unsat_)) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.store_path.empty() || !options_.warm_start) return;
  auto loaded = ArtifactStore(options_.store_path).load();
  if (loaded.ok()) {
    contents_ = std::move(loaded).take();
    unsat_ = contents_.unsat_keys;
    report_.primed_from_store = prime_cache_locked();
    report_.warm_started = report_.primed_from_store > 0;
    logger().info() << "warm start: primed " << report_.primed_from_store
                    << " live state(s), " << unsat_.size()
                    << " UNSAT key(s) from " << options_.store_path;
  } else if (loaded.error().code != "svc.store.missing") {
    // A bad store must never keep the daemon down: remember the typed
    // error for the operator and cold-start.
    store_error_ = loaded.error();
    logger().warn() << "store " << options_.store_path << " unusable ("
                    << store_error_.code << "): cold start";
  }
}

SoakService::~SoakService() {
  stop_.request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

std::size_t SoakService::prime_cache_locked() {
  const explore::ScenarioMatrix& matrix = campaign_.matrix();
  const auto& prototypes = matrix.prototypes();
  std::size_t primed = 0;
  // The entry carries just the persisted cut: no decode at boot. The first
  // resume of a primed key decodes it once into the state's shared slot
  // (PreparedLiveState::decoded), and every later resume reuses that. An
  // artifact that turns out undecodable (topology drifted under the same
  // key) just fails its resume and that cell falls back to a fresh
  // bootstrap — same net effect as not priming it, without paying a
  // validation decode up front.
  for (const LiveStateArtifact& artifact : contents_.live_states) {
    const std::size_t proto = prototype_index(matrix, artifact.key);
    if (proto == kNoPrototype) continue;  // options no longer produce this key
    auto state = std::make_shared<snapshot::PreparedLiveState>();
    state->raw = std::make_shared<const snapshot::Snapshot>(artifact.snap);
    state->resume_at = artifact.resume_at;
    state->bootstrap_executed = artifact.bootstrap_executed;
    state->quiesced = artifact.quiesced;
    state->oscillation_exit = artifact.oscillation_exit;
    const explore::LiveStateCache::Key key{
        prototypes[proto], artifact.key.seed,
        static_cast<std::size_t>(artifact.key.bootstrap_events),
        artifact.key.flip_exit};
    const explore::LiveStateCache::Lookup lookup = cache_.get_or_compute(
        key, [&state]() -> std::shared_ptr<const snapshot::PreparedLiveState> {
          return state;
        });
    if (!lookup.hit) ++primed;
  }
  return primed;
}

void SoakService::harvest_locked(const explore::MatrixResult& result) {
  // UNSAT memo: union of what we seeded and what the round proved (both
  // sides ascending+deduplicated).
  std::vector<std::uint64_t> merged;
  merged.reserve(contents_.unsat_keys.size() + result.unsat_keys.size());
  std::set_union(contents_.unsat_keys.begin(), contents_.unsat_keys.end(),
                 result.unsat_keys.begin(), result.unsat_keys.end(),
                 std::back_inserter(merged));
  contents_.unsat_keys = std::move(merged);
  unsat_ = contents_.unsat_keys;

  // Live states: every resolved cache entry that still carries its raw cut
  // replaces (or joins) the stored artifact under its stable name key.
  const explore::ScenarioMatrix& matrix = campaign_.matrix();
  const std::vector<explore::ScenarioSpec>& specs = matrix.scenarios();
  const std::vector<std::string>& impls = matrix.options().implementations;
  const auto& prototypes = matrix.prototypes();
  for (const explore::LiveStateCache::ResolvedEntry& entry :
       cache_.resolved_entries()) {
    if (entry.state == nullptr || entry.state->raw == nullptr) continue;
    std::size_t found = kNoPrototype;
    for (std::size_t i = 0; i < prototypes.size(); ++i) {
      if (static_cast<const void*>(prototypes[i].get()) ==
          entry.key.prototype.get()) {
        found = i;
        break;
      }
    }
    // Only this campaign's prototypes ever key the cache (its runs and
    // prime_cache_locked), so every entry maps back to one.
    assert(found != kNoPrototype);
    LiveStateArtifact artifact;
    artifact.key = WarmKey{specs[found / impls.size()].name,
                           impls[found % impls.size()], entry.key.seed,
                           entry.key.bootstrap_events, entry.key.flip_exit};
    artifact.resume_at = entry.state->resume_at;
    artifact.bootstrap_executed = entry.state->bootstrap_executed;
    artifact.quiesced = entry.state->quiesced;
    artifact.oscillation_exit = entry.state->oscillation_exit;
    artifact.snap = *entry.state->raw;
    artifact.cut_hash = artifact.snap.cut_hash();
    const auto it = std::lower_bound(
        contents_.live_states.begin(), contents_.live_states.end(), artifact.key,
        [](const LiveStateArtifact& a, const WarmKey& k) { return a.key < k; });
    if (it != contents_.live_states.end() && it->key == artifact.key) {
      *it = std::move(artifact);
    } else {
      contents_.live_states.insert(it, std::move(artifact));
    }
  }
}

RoundSummary SoakService::run_round() {
  std::uint64_t round = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    round = report_.rounds;
  }

  // The round itself runs unlocked: report() stays reachable while cells
  // execute. The thread model (one driver) keeps rounds from overlapping.
  FoldObserver fold;
  const explore::CampaignResult result = campaign_.run(&fold, stop_.token());

  RoundSummary summary;
  summary.round = round;
  summary.cells_completed = result.cells_completed;
  for (const explore::CellResult& cell : result.cells) {
    if (cell.bootstrap_from_cache) ++summary.cells_from_cache;
    summary.bootstrap_ms += cell.bootstrap_ms;
  }
  summary.faults = result.faults.size();
  summary.fault_hash = fault_set_hash(result.faults);
  summary.stopped = result.stopped;
  summary.wall_ms = result.wall_ms;

  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < fold.items.size(); ++i) {
    // Priority = serial encounter order across the whole soak (round-major,
    // canonical stream order within the round); salt = cell index + 1,
    // mirroring the matrix's own per-cell salting, so a content-identical
    // fault in two cells stays two findings while the same finding
    // recurring every round merges to its first sighting.
    if (ledger_.record(fold.items[i].fault, (round << 32) | i,
                       fold.items[i].cell + 1)) {
      ++summary.new_faults;
    }
  }
  harvest_locked(result);
  ++report_.rounds;
  report_.warm_starts += summary.cells_from_cache;
  report_.faults = ledger_.snapshot_sorted();
  if (report_.round_summaries.size() == kMaxRoundSummaries) {
    report_.round_summaries.erase(report_.round_summaries.begin());
    ++report_.round_summaries_dropped;
  }
  report_.round_summaries.push_back(summary);
  svc_metrics().rounds.add(1);
  svc_metrics().warm_starts.add(summary.cells_from_cache);
  if (report_.rounds % options_.persist_every_rounds == 0) {
    const util::Status persisted = persist_locked();
    if (!persisted.ok()) {
      logger().warn() << "persist failed (" << persisted.error().code << "): "
                      << persisted.error().detail;
    }
  }
  return summary;
}

SoakReport SoakService::run(std::size_t rounds) {
  for (std::size_t i = 0; i < rounds; ++i) {
    if (stop_.stop_requested()) break;
    (void)run_round();
  }
  return report();
}

void SoakService::loop() {
  // draining_ is consulted only AFTER a round: drain() never aborts work,
  // so a drain racing ahead of the first round still gets one well-formed
  // round (stop() is the abort path — it fires the token checked here and
  // inside the round itself).
  while (!stop_.stop_requested()) {
    (void)run_round();
    bool done = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done = options_.max_rounds != 0 && report_.rounds >= options_.max_rounds;
    }
    if (done || stop_.stop_requested() ||
        draining_.load(std::memory_order_acquire)) {
      break;
    }
    // Cadence sleep in small slices: request_stop() is an atomic store
    // (usable from a signal handler), so the loop polls rather than waits
    // on a condition variable and reacts within ~50ms.
    std::chrono::milliseconds remaining = options_.round_interval;
    while (remaining.count() > 0 && !stop_.stop_requested() &&
           !draining_.load(std::memory_order_acquire)) {
      const std::chrono::milliseconds slice =
          std::min(remaining, std::chrono::milliseconds(50));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
  // Final persist: even a SIGINT'd daemon leaves a well-formed store,
  // report and metrics file behind.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const util::Status persisted = persist_locked();
    if (!persisted.ok()) {
      logger().warn() << "final persist failed (" << persisted.error().code
                      << "): " << persisted.error().detail;
    }
  }
  running_.store(false, std::memory_order_release);
}

void SoakService::start() {
  assert(!lifecycle_used_ && "SoakService supports one start/stop lifecycle");
  lifecycle_used_ = true;
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { loop(); });
}

void SoakService::stop() {
  stop_.request_stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false, std::memory_order_release);
}

void SoakService::drain() {
  draining_.store(true, std::memory_order_release);
  if (loop_thread_.joinable()) loop_thread_.join();
  running_.store(false, std::memory_order_release);
}

void SoakService::request_stop() noexcept { stop_.request_stop(); }

bool SoakService::running() const noexcept {
  return running_.load(std::memory_order_acquire);
}

SoakReport SoakService::report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

util::Status SoakService::persist() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return persist_locked();
}

util::Status SoakService::persist_locked() {
  util::Status status = util::Status::success();
  auto note = [&status](util::Status candidate) {
    if (status.ok() && !candidate.ok()) status = std::move(candidate);
  };
  if (!options_.store_path.empty()) {
    note(ArtifactStore(options_.store_path).save(contents_));
  }
  if (!options_.report_path.empty()) {
    note(write_text_atomic(options_.report_path, report_.to_json() + "\n",
                           "svc.report.io"));
  }
  if (!options_.metrics_path.empty()) {
    note(write_text_atomic(options_.metrics_path,
                           obs::MetricsRegistry::global().snapshot().to_text(),
                           "svc.metrics.io"));
  }
  return status;
}

util::Error SoakService::store_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return store_error_;
}

}  // namespace dice::svc
