// svc::SoakService — the resident online soak daemon (docs/SERVICE.md).
//
// The paper's deployment model is a *resident* tester: DiCE runs beside the
// live system indefinitely, not as a batch job someone re-launches. Before
// this subsystem the repo's soaks were batch Campaigns driven by hand:
// every restart paid the full cold-start bill and every result vanished
// with the process. SoakService closes both gaps:
//
//  * it drives explore::Campaign in ROUNDS — fixed cadence or back-to-back
//    ("run when idle") — folding each round's CampaignResult into one
//    cumulative SoakReport whose fault sets merge through a FaultLedger
//    (content-identical faults dedup across rounds; serial-order
//    determinism per round is untouched);
//  * it persists warm-start state (svc::ArtifactStore): harvested
//    PreparedLiveStates and the proven-UNSAT solver memo survive the
//    process, so a killed-and-restarted daemon resumes bootstraps in
//    microseconds instead of replaying them;
//  * a control surface: periodic SoakReport JSON and Prometheus text
//    written atomically (tmp + rename), so an operator tails files instead
//    of attaching a debugger.
//
// Determinism receipt: every round re-runs the same campaign over the same
// seeds, so each round's canonical fault-set hash equals the standalone
// batch harness's, at any worker count, cold or warm — pinned by
// tests/svc_soak_test.cpp against the literal topology27 hash.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "explore/campaign.hpp"
#include "svc/artifact_store.hpp"

namespace dice::svc {

/// The canonical fault-set hash: FNV-1a chained over each report's
/// to_string() in order, finalized. The ONE hash definition shared by the
/// service, the benches and the receipt tests — byte-identical fault lists
/// and only those collide.
[[nodiscard]] std::uint64_t fault_set_hash(const std::vector<core::FaultReport>& faults);

/// Everything the daemon itself tunes. The exploration knobs live in the
/// nested CampaignOptions; fields here govern rounds, persistence and the
/// control files. docs/SERVICE.md documents every field (two-way gate in
/// tools/check_docs.sh).
struct SoakOptions {
  /// Exploration configuration for every round. Validated through
  /// CampaignOptions::validate() by SoakOptions::validate(). The service
  /// overrides `caching.live_cache` and `caching.unsat_seed` with its own
  /// service-owned instances (that is the warm-continuity machinery);
  /// everything else is honored as given.
  explore::CampaignOptions campaign{};
  /// Stop after this many rounds; 0 = unbounded (run until stop()/drain()).
  std::size_t max_rounds = 0;
  /// Fixed round cadence: the delay between one round's end and the next
  /// round's start. 0 = run-when-idle (rounds back to back).
  std::chrono::milliseconds round_interval{0};
  /// Warm-start store file (svc::ArtifactStore). "" = no persistence: every
  /// start is cold and nothing is saved.
  std::string store_path{};
  /// Cumulative SoakReport JSON, rewritten atomically (tmp + rename) on the
  /// persist cadence and at shutdown. "" = no report file.
  std::string report_path{};
  /// Prometheus text exposition of the global metrics registry, written
  /// beside the report on the same cadence. "" = no metrics file.
  std::string metrics_path{};
  /// Persist (store + report + metrics) once every N completed rounds; the
  /// final round always persists. Rejected at 0 by validate().
  std::size_t persist_every_rounds = 1;
  /// Load the store at construction and prime the bootstrap cache + UNSAT
  /// memo from it. Off = ignore any existing store (still saved to, if
  /// `store_path` is set).
  bool warm_start = true;

  /// Rejects nonsense with stable "svc.options.*" codes (and whatever
  /// "campaign.options.*" code the nested options fail with).
  [[nodiscard]] util::Status validate() const;
};

/// One round's fold into the cumulative report.
struct RoundSummary {
  std::uint64_t round = 0;  ///< 0-based
  std::size_t cells_completed = 0;
  std::size_t cells_from_cache = 0;  ///< bootstraps served by a cache resume
  /// Summed live-system startup across this round's cells (fresh converge
  /// or cache resume) — the cold-vs-warm restart receipt bench_e7 gates on.
  double bootstrap_ms = 0.0;
  std::size_t faults = 0;            ///< this round's canonical fault count
  std::size_t new_faults = 0;        ///< fault keys this round added to the ledger
  /// Canonical hash of THIS round's fault set (fault_set_hash). Equal for
  /// every uninterrupted round of a fixed configuration — the receipt the
  /// soak tests pin against the batch harness.
  std::uint64_t fault_hash = 0;
  bool stopped = false;  ///< the round was cut short by stop()/deadline
  double wall_ms = 0.0;
};

/// The cumulative state of the soak, exposed by report() and serialized to
/// the report file. Cross-round fault dedup: content-identical faults from
/// different rounds merge to one entry (ledger priority = earliest round).
struct SoakReport {
  std::uint64_t rounds = 0;       ///< rounds completed (including stopped ones)
  std::uint64_t warm_starts = 0;  ///< cumulative cells_from_cache over all rounds
  std::size_t primed_from_store = 0;  ///< artifacts loaded from the store and primed
  bool warm_started = false;          ///< the store primed at least one artifact
  std::vector<RoundSummary> round_summaries;  ///< oldest first (bounded; see cap)
  std::uint64_t round_summaries_dropped = 0;  ///< oldest summaries beyond the cap
  std::vector<core::FaultReport> faults;  ///< cumulative, deduplicated, stable order

  /// Stable JSON (fixed key order, 64-bit hashes as hex strings). What the
  /// report file holds.
  [[nodiscard]] std::string to_json() const;
};

/// Thread model: ONE driver at a time. Either the daemon loop (start/stop/
/// drain) or a synchronous caller (run_round/run) owns round execution;
/// mixing them is a caller error. report(), request_stop() and running()
/// are safe from any thread while the loop runs.
class SoakService {
 public:
  /// Bound on retained per-round summaries (the cumulative counters and the
  /// fault ledger are unaffected): a resident daemon must not grow without
  /// bound. Oldest summaries are dropped and counted.
  static constexpr std::size_t kMaxRoundSummaries = 4096;

  /// Builds the one campaign (service-wired caches) and — when `store_path` is
  /// set and `warm_start` — loads the store and primes the bootstrap cache
  /// and UNSAT memo. A missing store is the normal first boot; a corrupt or
  /// truncated one degrades to a cold start with the typed error retained
  /// in store_error() (the daemon NEVER refuses to start over a bad store).
  SoakService(std::vector<explore::ScenarioSpec> scenarios, SoakOptions options);
  ~SoakService();
  SoakService(const SoakService&) = delete;
  SoakService& operator=(const SoakService&) = delete;

  /// --- daemon lifecycle ---------------------------------------------------
  /// Spawns the round loop. One lifecycle per service: start() after a
  /// stop()/drain() is a caller error (assert).
  void start();
  /// Requests stop (interrupting the running round at its next safe point),
  /// joins the loop, persists. The final report is well-formed: a cut-short
  /// round folds only its completed cells.
  void stop();
  /// Lets the running round FINISH, then exits the loop, joins, persists.
  void drain();
  /// The stop request alone — an atomic flag store, safe from a signal
  /// handler (dice_soakd's SIGINT path). The loop notices within its
  /// polling slice; call stop()/drain() afterwards to join.
  void request_stop() noexcept;
  [[nodiscard]] bool running() const noexcept;

  /// --- synchronous driving (tests, examples, benches) ---------------------
  /// Runs exactly one round on the calling thread and returns its summary.
  RoundSummary run_round();
  /// Runs `rounds` rounds back to back and returns the final report.
  SoakReport run(std::size_t rounds);

  /// --- control surface -----------------------------------------------------
  /// Snapshot of the cumulative report (copy; safe while the loop runs).
  [[nodiscard]] SoakReport report() const;
  /// Persists store + report + metrics now (first error wins). The round
  /// loop calls this on the persist cadence; external callers should only
  /// use it while no round is running.
  [[nodiscard]] util::Status persist();

  /// The typed error of the most recent failed store load (cold-start
  /// cause), empty code when the last load succeeded or never ran.
  [[nodiscard]] util::Error store_error() const;
  [[nodiscard]] const SoakOptions& options() const noexcept { return options_; }

 private:
  void loop();
  /// Publishes contents_' artifacts into the bootstrap cache as states
  /// holding only their raw cut (no decode — the first resume per key
  /// decodes it for every later one). Returns how many primed. Caller
  /// holds mutex_.
  std::size_t prime_cache_locked();
  /// Folds a finished round's cache/solver state back into contents_.
  /// Caller holds mutex_.
  void harvest_locked(const explore::MatrixResult& result);
  [[nodiscard]] util::Status persist_locked();

  SoakOptions options_;
  /// Service-owned warm-start state, wired into the campaign: the bootstrap
  /// cache (CampaignOptions::Caching::live_cache) and the UNSAT seed vector
  /// (Caching::unsat_seed). Declared before campaign_, which points at them.
  explore::LiveStateCache cache_;
  std::vector<std::uint64_t> unsat_;
  explore::Campaign campaign_;
  explore::FaultLedger ledger_;

  mutable std::mutex mutex_;  ///< guards report_, contents_, store error
  SoakReport report_;
  StoreContents contents_;
  util::Error store_error_;

  explore::StopSource stop_;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  bool lifecycle_used_ = false;
};

}  // namespace dice::svc
