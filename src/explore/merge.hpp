// explore::CellMerger — the ONE canonical merge: a streaming reorder buffer
// plus the per-cell-salted FaultLedger discipline that ScenarioMatrix::run
// folds its cells through. Kept as its own component so the invariant can
// be tested directly (CellMergerTest):
//
//  * cells land in ANY order (wall-clock completion); the observer stream
//    is flushed in CANONICAL cell order — a landed cell is held until every
//    earlier cell has landed, then flushed start -> fault* -> done;
//  * a completed cell's faults are recorded with priority
//    `index << 32 + encounter order` and key salt `index + 1` — the serial
//    order a single-process, single-worker run would produce — so
//    canonical_faults() is byte-identical no matter which worker executed
//    the cell or when its result arrived;
//  * cells that never land (skipped by a stop token, drained from the
//    pool) are flushed as not-started by finish_remaining(): the stream
//    always covers every cell exactly once, and a cancelled merge is
//    well-formed-partial, never silently short.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "explore/control.hpp"
#include "explore/ledger.hpp"
#include "explore/matrix.hpp"
#include "obs/trace.hpp"

namespace dice::explore {

class CellMerger {
 public:
  struct Options {
    /// Canonical-order event sink; may be null. Callbacks are serialized
    /// under the merger's flush mutex.
    CampaignObserver* observer = nullptr;
    /// Span sink notified of every flush (Trace::cell_flushed) so the
    /// trace's canonical section mirrors the observer stream. May be null.
    obs::Trace* trace = nullptr;
  };

  /// `cells` is the canonical result array (one slot per cell, identity
  /// prefilled); the merger flushes descriptors and results straight out of
  /// it. Must outlive the merger; slot `i` must not be written after
  /// finish_cell(i).
  CellMerger(std::vector<CellResult>* cells, Options options);

  /// Records a COMPLETED cell's deduplicated faults (serial-encounter
  /// order) into the canonical ledger under the matrix discipline, and
  /// stashes a copy for the observer flush. Call at most once per cell,
  /// before finish_cell(index). Thread-safe against other cells: the
  /// ledger locks its own mutex and the stash slot is owned by this cell until
  /// its flush.
  void record_faults(std::size_t index, const std::vector<core::FaultReport>& faults);

  /// Marks the cell landed and flushes the canonical prefix that is now
  /// decidable. Safe to call exactly once per cell, from any thread.
  void finish_cell(std::size_t index);

  /// Flushes every cell that never landed (stop-token skips, drained
  /// tasks) so the stream covers all cells exactly once.
  /// Call after producers quiesced.
  void finish_remaining();

  /// The merged canonical fault list: ascending ledger priority — the
  /// byte-identical serial order.
  [[nodiscard]] std::vector<core::FaultReport> canonical_faults() const;

  [[nodiscard]] std::size_t cell_count() const noexcept { return done_.size(); }

 private:
  /// Flushes decidable cells. Caller holds mutex_.
  void flush_locked();
  [[nodiscard]] CellDescriptor descriptor(std::size_t index) const;

  std::vector<CellResult>* cells_;
  Options options_;
  FaultLedger ledger_;
  std::mutex mutex_;
  std::vector<unsigned char> done_;
  /// Per-cell observer copies (allocated only when an observer is set);
  /// released as soon as the cell streams.
  std::vector<std::vector<core::FaultReport>> stash_;
  std::size_t next_ = 0;
};

}  // namespace dice::explore
