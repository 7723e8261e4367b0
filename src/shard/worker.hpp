// The shard worker half of the deal/merge protocol (docs/SHARDING.md).
//
// One worker process runs ONE shard attempt: it reads a single kJob frame
// from `in_fd`, rebuilds the named campaign (shard::resolve_scenario_set +
// the job's CampaignOptions, lowered by to_matrix_options as the in-process
// Campaign lowers them), executes only the job's canonical cell subset
// (MatrixOptions::cell_subset), streams one kCellResult frame per executed
// cell to `out_fd` as the merge flushes it, and terminates with a
// kShardDone receipt. The coordinator buffers everything and commits only
// on a valid done — so a worker that dies mid-stream rolls back cleanly.
//
// The chaos flags are the fault-injection TEST SEAM the coordinator tests
// drive (worker killed mid-shard / stalled past the inactivity deadline /
// corrupt frame). They exercise the real failure paths — a crash really is
// `_exit` mid-protocol, a stall really stops the byte stream — rather than
// simulating them coordinator-side.
#pragma once

#include <cstdint>
#include <optional>

#include "util/result.hpp"

namespace dice::shard {

/// Test-seam behavior for one worker process. Defaults are all off — a
/// production worker never constructs these.
struct WorkerChaos {
  /// _exit(2) after streaming this many cell results (crash mid-shard).
  std::optional<std::uint64_t> crash_after_cells;
  /// Stop emitting bytes (sleep forever) after this many cell results —
  /// the coordinator's inactivity deadline must fire.
  std::optional<std::uint64_t> stall_after_cells;
  /// Flip one payload byte of the first cell-result frame: the envelope
  /// checksum catches it coordinator-side as shard.wire.checksum.
  bool corrupt_frame = false;
};

/// Parses worker argv (past argv[0]):
///   --test-crash-after-cells=N
///   --test-stall-after-cells=N
///   --test-corrupt-frame
/// Unknown arguments fail with "shard.worker.args".
[[nodiscard]] util::Result<WorkerChaos> parse_worker_args(int argc, char** argv);

/// Runs the worker protocol over the given descriptors; returns the
/// process exit code. 0 = shard complete (kShardDone sent); nonzero exits
/// are terminal protocol failures the coordinator observes as EOF:
///   2 chaos crash (test seam)
///   3 write failure (coordinator went away)
///   4 malformed or missing job frame
///   5 job references an unknown scenario set
///   6 job campaign fails CampaignOptions::validate() (campaign.options.*)
int worker_main(int in_fd, int out_fd, const WorkerChaos& chaos);

}  // namespace dice::shard
