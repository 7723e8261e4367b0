#include "explore/merge.hpp"

#include <algorithm>
#include <cassert>

namespace dice::explore {

CellMerger::CellMerger(std::vector<CellResult>* cells, Options options)
    : cells_(cells), options_(options) {
  assert(cells_ != nullptr);
  done_.assign(cells_->size(), 0);
  if (options_.observer != nullptr) stash_.resize(cells_->size());
}

CellDescriptor CellMerger::descriptor(std::size_t index) const {
  const CellResult& cell = (*cells_)[index];
  return CellDescriptor{index, cell.scenario, to_string(cell.strategy), cell.seed,
                        cell.implementation};
}

void CellMerger::record_faults(std::size_t index,
                               const std::vector<core::FaultReport>& faults) {
  // 32-bit priority bands: a cell recording 2^32 faults would bleed into
  // the next cell's band and corrupt serial-order dedup.
  assert(faults.size() < (std::uint64_t{1} << 32));
  ledger_.record_all(faults, static_cast<std::uint64_t>(index) << 32,
                     /*key_salt=*/index + 1);
  // The stash slot is owned by this cell's producer until finish_cell's
  // mutex publishes it to the flusher — no lock needed here.
  if (options_.observer != nullptr) stash_[index] = faults;
}

void CellMerger::finish_cell(std::size_t index) {
  const std::lock_guard<std::mutex> lock(mutex_);
  done_[index] = 1;
  flush_locked();
}

void CellMerger::finish_remaining() {
  const std::lock_guard<std::mutex> lock(mutex_);
  bool any = false;
  for (std::size_t i = 0; i < done_.size(); ++i) {
    if (done_[i] == 0) {
      done_[i] = 1;
      any = true;
    }
  }
  if (any) flush_locked();
}

void CellMerger::flush_locked() {
  while (next_ < done_.size() && done_[next_] != 0) {
    const std::size_t i = next_++;
    // The canonical flush order doubles as the trace's canonical cell
    // order (the flush mutex serializes these calls).
    if (options_.trace != nullptr) {
      options_.trace->cell_flushed(static_cast<std::uint32_t>(i),
                                   (*cells_)[i].completed);
    }
    if (options_.observer == nullptr) continue;
    const CellDescriptor desc = descriptor(i);
    options_.observer->on_cell_start(desc);
    for (const core::FaultReport& fault : stash_[i]) {
      options_.observer->on_fault(desc, fault);
    }
    options_.observer->on_cell_done(desc, (*cells_)[i]);
    // Streamed = done with the copy: release it now rather than holding
    // every cell's duplicate fault list until the whole run returns.
    std::vector<core::FaultReport>().swap(stash_[i]);
  }
}

std::vector<core::FaultReport> CellMerger::canonical_faults() const {
  return ledger_.snapshot_sorted();
}

}  // namespace dice::explore
