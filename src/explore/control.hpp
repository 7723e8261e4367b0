// Campaign control vocabulary: cooperative cancellation and the streaming
// event sink shared by the Campaign facade and the layers underneath it
// (ScenarioMatrix, Orchestrator).
//
// StopToken is a cheap copyable handle (one shared atomic flag + an
// optional deadline). The exploration stack polls it at safe points only —
// between cells, between episodes, and between clones, NEVER mid-clone —
// so a cancelled run still finishes whole clones and keeps every completed
// cell's fault set byte-identical to an uncancelled run's. A default-
// constructed token never fires.
//
// CampaignObserver streams results while a run is in flight. Events are
// delivered in CANONICAL cell order (the cross-product order of the
// result), not wall-clock completion order: a reorder buffer inside the
// matrix run holds finished cells until every earlier cell has landed,
// then flushes start -> fault* -> done for each. The event sequence of an
// uncancelled run is therefore deterministic for any worker count.
// Callbacks are serialized (never concurrent) but may arrive on any worker
// thread; keep them fast — a slow observer backpressures cell completion.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>

#include "dice/report.hpp"

namespace dice::explore {

/// Cancellation handle polled by the exploration stack. Copies share the
/// same flag; the deadline is per-token state combined via with_deadline.
class StopToken {
 public:
  using Clock = std::chrono::steady_clock;

  StopToken() = default;  ///< never fires

  /// True once the source requested stop or the deadline passed. An atomic
  /// load when no deadline is set; polled only between units of work.
  [[nodiscard]] bool stop_requested() const noexcept {
    if (flag_ != nullptr && flag_->load(std::memory_order_acquire)) return true;
    return deadline_ != Clock::time_point::max() && Clock::now() >= deadline_;
  }

  /// This token, additionally bounded by `deadline` (the earlier of the
  /// two wins). How Campaign time-boxes a soak without a second flag.
  [[nodiscard]] StopToken with_deadline(Clock::time_point deadline) const noexcept {
    StopToken bounded = *this;
    if (deadline < bounded.deadline_) bounded.deadline_ = deadline;
    return bounded;
  }

  /// Whether this token can ever fire (callers may skip polling otherwise).
  [[nodiscard]] bool stop_possible() const noexcept {
    return flag_ != nullptr || deadline_ != Clock::time_point::max();
  }

 private:
  friend class StopSource;
  std::shared_ptr<const std::atomic<bool>> flag_;
  Clock::time_point deadline_ = Clock::time_point::max();
};

/// The requesting side: owns the flag, hands out tokens.
class StopSource {
 public:
  StopSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() noexcept { flag_->store(true, std::memory_order_release); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }
  [[nodiscard]] StopToken token() const noexcept {
    StopToken token;
    token.flag_ = flag_;
    return token;
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Identifies one matrix cell in observer events. The string_views point at
/// storage owned by the running matrix/campaign and are valid only for the
/// duration of the callback.
struct CellDescriptor {
  std::size_t index = 0;  ///< canonical (cross-product) cell index
  std::string_view scenario;
  std::string_view strategy;
  std::uint64_t seed = 0;
  /// Implementation-axis entry ("" = as authored, honoring per-node pins).
  std::string_view implementation;
};

struct CellResult;  // explore/matrix.hpp

/// Event sink for streaming campaign results. Default no-op implementations
/// let observers override only what they need. Run-level counts (cells
/// done, faults so far) are folds over on_cell_done and on_fault.
class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;
  /// Canonical-order cell marker: the next cell whose results follow.
  virtual void on_cell_start(const CellDescriptor& cell) { (void)cell; }
  /// One per deduplicated fault of a COMPLETED cell, in the cell's
  /// serial-encounter order. Skipped/interrupted cells stream no faults.
  virtual void on_fault(const CellDescriptor& cell, const core::FaultReport& fault) {
    (void)cell;
    (void)fault;
  }
  /// The cell's counters; `result.completed == false` marks a cell the
  /// stop token skipped or interrupted (its faults were withheld).
  virtual void on_cell_done(const CellDescriptor& cell, const CellResult& result) {
    (void)cell;
    (void)result;
  }
};

}  // namespace dice::explore
