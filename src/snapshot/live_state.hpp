// PreparedLiveState: the live-system variant of PreparedSnapshot.
//
// A PreparedSnapshot freezes a consistent cut so clones can be restored
// from it; a PreparedLiveState additionally records what a *live* System
// needs to carry on from that cut as if it had bootstrapped itself — the
// simulator resume point (sessions re-arm their timers relative to it, so
// later snapshot timestamps line up with a fresh bootstrap's) and the
// bootstrap verdict subsequent consumers replay. It is the artifact the
// explore::LiveStateCache publishes: the first ScenarioMatrix cell of a
// (prototype, seed) key converges its live system once and donates this
// capture; every later cell resumes from it in microseconds instead of
// replaying bootstrap.
//
// One decode path: the typed cut lives in a once-filled slot. A capture
// fills it at birth; a state primed from svc::ArtifactStore carries only
// its raw cut, and whoever resumes it first decodes it there — every later
// resume shares that decode.
//
// Only *quiescent* bootstraps are captured. A churning system's cut is a
// consistent state, but restoring it re-injects the in-flight frames on a
// fresh schedule — a different (if equally valid) interleaving. Verdicts
// must be scheduling-independent, so non-quiescent keys are marked
// uncacheable and replayed instead (cheap now that the oscillation
// early-exit governs bootstrap too).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "snapshot/prepared.hpp"

namespace dice::snapshot {

class PreparedLiveState {
 public:
  /// `decoded` pre-fills the slot (a capture already holds its typed cut);
  /// null leaves it for the first decoded() call.
  explicit PreparedLiveState(std::shared_ptr<const PreparedSnapshot> decoded = nullptr)
      : decoded_(std::move(decoded)) {}

  /// Typed per-node checkpoints + pre-built in-flight frame schedule
  /// (empty for a quiescent capture), shared with every other resumer. The
  /// first call on an unfilled slot decodes `raw` through `resolver` while
  /// holding the slot's lock, so concurrent resumers wait for that one
  /// decode. A failed decode stores nothing and returns its typed error.
  [[nodiscard]] util::Result<std::shared_ptr<const PreparedSnapshot>> decoded(
      const PreparedSnapshot::NodeResolver& resolver) const {
    const std::lock_guard<std::mutex> lock(decode_mutex_);
    if (decoded_ != nullptr) return decoded_;
    if (raw == nullptr) return util::make_error("snapshot.live_state.empty");
    auto built = PreparedSnapshot::build(*raw, resolver);
    if (built.ok()) decoded_ = built.value();
    return built;
  }

  /// The raw (encoded) cut. Kept so the capture can be serialized —
  /// svc::ArtifactStore persists these raw bytes and a restarted daemon
  /// decodes them against its own routers. Always standalone (baseline_id
  /// 0): captures happen before any episode snapshot exists to delta
  /// against.
  std::shared_ptr<const Snapshot> raw;
  /// Simulator clock at capture (the donor's bootstrap end).
  sim::Time resume_at = 0;
  /// Events the donor's bootstrap executed (receipt for benches: the work
  /// every resumed cell skips).
  std::uint64_t bootstrap_executed = 0;
  /// Bootstrap verdict to replay on resume.
  bool quiesced = false;
  bool oscillation_exit = false;

 private:
  mutable std::mutex decode_mutex_;
  mutable std::shared_ptr<const PreparedSnapshot> decoded_;
};

}  // namespace dice::snapshot
