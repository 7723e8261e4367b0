// shard::ShardCoordinator — deal a campaign's cell space to worker
// PROCESSES and merge their results byte-identically (docs/SHARDING.md).
//
// The deal: canonical cells are assigned round-robin (cell i -> shard
// i % processes) — deterministic, and it spreads scenarios/bootstrap keys
// across workers the way the in-process matrix's interleave spreads them
// across threads. Each shard is executed by a freshly spawned
// dice_shard_worker talking length-prefixed DSHD frames over pipes (job in
// on stdin, results out on stdout).
//
// The merge: incoming cell results are BUFFERED per attempt and committed
// to the shared explore::CellMerger only when the worker's kShardDone
// receipt arrives and its cell count matches the deal — so the canonical
// observer stream and the fault ledger only ever see whole, validated
// shards, and the merged fault bytes equal the single-process run's
// (receipt: sharded topology27 == 63f680b04458c2a9 at 1/2/4 workers).
//
// Failure semantics (the DCO-analyzer point — the harness itself must be
// controllable and observable): a worker that crashes (EOF before done),
// stalls past the inactivity deadline (SIGKILL), or emits a corrupt or
// protocol-violating frame fails its ATTEMPT: buffered results are rolled
// back and the shard is re-dealt to a fresh worker, up to
// ShardOptions::max_redeals times. Cells are deterministic, so a re-dealt
// shard reproduces the identical bytes. A shard that exhausts its retries
// becomes a typed ShardLoss — its cells flush as skipped (started=false),
// the result says so — never a coordinator crash, never a silently short
// merge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "explore/campaign.hpp"
#include "explore/control.hpp"
#include "explore/matrix.hpp"
#include "util/result.hpp"

namespace dice::shard {

struct ShardOptions {
  /// Worker PROCESS count == shard count. 1 is a valid degenerate deal
  /// (everything through one worker — the cheapest cross-process receipt).
  std::size_t processes = 2;
  /// Path to the dice_shard_worker binary (tests get it from the build).
  std::string worker_path{};
  /// Named scenario set both sides resolve (shard::resolve_scenario_set);
  /// blueprints never travel on the wire.
  std::string scenario_set{};
  /// Re-deal attempts per shard AFTER the first (2 = up to 3 spawns).
  std::size_t max_redeals = 2;
  /// A worker producing no bytes for this long is presumed hung: SIGKILL +
  /// attempt failure. Generous by default — a stalled shard costs one
  /// deadline, a false positive costs a whole re-deal.
  std::uint64_t inactivity_timeout_ms = 60'000;
  /// TEST SEAM: extra argv appended to each shard's FIRST spawn only
  /// (worker chaos flags — crash/stall/corrupt). Re-deals spawn clean, so
  /// an injected failure is recovered by the normal retry path. Empty in
  /// production.
  std::vector<std::string> first_attempt_args{};

  /// Rejects nonsense ("shard.options.*"): zero processes, empty
  /// worker_path, a scenario set that does not resolve.
  [[nodiscard]] util::Status validate() const;
};

/// One shard whose every attempt failed: its cells were NOT executed. The
/// merged result flushes them as skipped; `code`/`detail` carry the final
/// attempt's typed failure.
struct ShardLoss {
  std::size_t shard = 0;
  std::vector<std::size_t> cells;  ///< canonical indices lost
  std::string code;
  std::string detail;
};

/// One failed attempt (re-dealt or terminal), for diagnostics: every
/// injected fault in the coordinator tests shows up here typed.
struct ShardAttemptFailure {
  std::size_t shard = 0;
  std::size_t attempt = 0;  ///< 0 = first spawn
  std::string code;   ///< shard.worker.crash / shard.worker.stall /
                      ///< shard.wire.* / shard.worker.protocol
  std::string detail;
};

struct ShardRunResult {
  /// The merged campaign-shaped result: cells in canonical order, faults
  /// in canonical ledger order (byte-identical to single-process), the
  /// union of worker unsat keys. Pool/cache stats stay zero — they live in
  /// the worker processes.
  explore::MatrixResult matrix;
  std::size_t shards = 0;
  std::size_t workers_spawned = 0;
  std::size_t redeals = 0;
  std::vector<ShardAttemptFailure> failures;
  std::vector<ShardLoss> losses;

  [[nodiscard]] bool complete() const noexcept { return losses.empty(); }
};

class ShardCoordinator {
 public:
  /// `campaign` carries every determinism-relevant knob (its pointer
  /// fields — pool, caches, observers — are ignored; workers own their
  /// own). run() checks `campaign.validate()` and `options.validate()`
  /// before spawning anything.
  ShardCoordinator(explore::CampaignOptions campaign, ShardOptions options);

  /// Deals, spawns, merges; blocks until every shard completed or was
  /// declared lost. Streams the merged canonical cell stream to `observer`
  /// (may be null) exactly as an in-process Campaign would. `unsat_seed`
  /// rides into every worker's job frame (warm start); may be null.
  /// Fails (campaign.options.* / shard.options.* / shard.spawn.*) only on
  /// configuration or resource errors — worker misbehavior is never an error here, it is
  /// typed loss data in the result.
  [[nodiscard]] util::Result<ShardRunResult> run(
      explore::CampaignObserver* observer = nullptr,
      const std::vector<std::uint64_t>* unsat_seed = nullptr);

  [[nodiscard]] const ShardOptions& options() const noexcept { return options_; }

 private:
  explore::CampaignOptions campaign_;
  ShardOptions options_;
};

}  // namespace dice::shard
