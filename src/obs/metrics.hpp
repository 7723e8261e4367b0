// obs::MetricsRegistry — the process-wide telemetry counter surface.
//
// The paper's stance is ONLINE testing: DiCE runs beside a deployed system,
// so operators must be able to see what exploration is doing (overhead,
// coverage, cache traffic) without perturbing it. Before this subsystem
// that visibility was smeared across five unrelated `Stats` structs; the
// registry is the one process-wide place every layer reports into and the
// one place a scrape reads from.
//
// Hot-path contract — telemetry must be PASSIVE:
//  * No locks and no contended read-modify-write on the clone path. Every
//    metric keeps per-thread slots: a thread is leased its own slot (see
//    this_thread_slot), and the single-writer update is a relaxed
//    load+store pair that compiles to a plain add — the relaxed atomic
//    storage exists purely so a concurrent scrape has defined behavior,
//    never for ordering. Only threads beyond the slot pool (overflow) fall
//    back to a relaxed fetch_add.
//  * Recording never branches on data and never allocates. Registration
//    (name -> handle) takes a mutex, but handles are cached by callers
//    (function-local statics), so the hot path never sees it.
//  * Compiled out (-DDICE_OBS=OFF -> DICE_OBS_DISABLED), every record call
//    is an empty inline function; behavior is byte-identical either way —
//    the determinism receipt in tests/obs_test.cpp pins it.
//
// Scrape: snapshot() merges the slots of every metric into a
// MetricsSnapshot whose entries are in stable (name-sorted) order, with
// JSON and Prometheus-style text exposition. Counters are cumulative for
// the process lifetime; per-run views are deltas (delta_since), which is
// how CampaignResult::telemetry is produced.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dice::obs {

#if defined(DICE_OBS_DISABLED)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Exclusive per-thread slots available before threads share the overflow
/// slot. Slots are leased on first use and returned at thread exit, so a
/// process that churns pools (every ExplorePool spawns fresh workers)
/// recycles them instead of exhausting the pool.
inline constexpr std::size_t kMaxThreadSlots = 128;
/// The shared fallback slot (index kMaxThreadSlots); updates to it use a
/// relaxed fetch_add because it may have many concurrent writers.
inline constexpr std::size_t kOverflowSlot = kMaxThreadSlots;
inline constexpr std::size_t kSlotCount = kMaxThreadSlots + 1;

/// The calling thread's leased slot index (kOverflowSlot when the lease
/// pool is exhausted). Stable for the thread's lifetime.
[[nodiscard]] std::size_t this_thread_slot() noexcept;

namespace detail {
/// Single-writer relaxed bump: compiles to a plain add on the owned slot;
/// the overflow slot (shared writers) takes the atomic RMW instead.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n,
                 std::size_t slot) noexcept {
  if (slot == kOverflowSlot) {
    cell.fetch_add(n, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
}
inline void bump_signed(std::atomic<std::int64_t>& cell, std::int64_t n,
                        std::size_t slot) noexcept {
  if (slot == kOverflowSlot) {
    cell.fetch_add(n, std::memory_order_relaxed);
  } else {
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
}
}  // namespace detail

/// Monotonic counter with per-thread slots. add() is the hot-path entry;
/// value() merges on scrape.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if constexpr (!kEnabled) {
      (void)n;
      return;
    }
    const std::size_t slot = this_thread_slot();
    detail::bump(slots_[slot].value, n, slot);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& slot : slots_) total += slot.value.load(std::memory_order_relaxed);
    return total;
  }

  /// Tests only — callers must guarantee no concurrent writers.
  void reset_for_test() noexcept {
    for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Slot, kSlotCount> slots_{};
};

/// Additive gauge (sum of per-thread contributions): add()/sub() from any
/// thread, value() on scrape. Models in-flight counts (campaigns running),
/// not sampled levels.
class Gauge {
 public:
  void add(std::int64_t n = 1) noexcept {
    if constexpr (!kEnabled) {
      (void)n;
      return;
    }
    const std::size_t slot = this_thread_slot();
    detail::bump_signed(slots_[slot].value, n, slot);
  }
  void sub(std::int64_t n = 1) noexcept { add(-n); }

  [[nodiscard]] std::int64_t value() const noexcept {
    std::int64_t total = 0;
    for (const Slot& slot : slots_) total += slot.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset_for_test() noexcept {
    for (Slot& slot : slots_) slot.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> value{0};
  };
  std::array<Slot, kSlotCount> slots_{};
};

/// The default latency bucket ladder (milliseconds): sub-100µs clone resets
/// up to second-scale bootstraps.
[[nodiscard]] const std::vector<double>& default_latency_bounds_ms();

/// Fixed-bucket histogram with per-thread slots. Bucket semantics match
/// Prometheus: a value lands in the first bucket whose upper bound is >= it
/// (`le`); values above the last bound land in the implicit +Inf bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept {
    if constexpr (!kEnabled) {
      (void)value;
      return;
    }
    const std::size_t slot = this_thread_slot();
    std::size_t bucket = 0;
    while (bucket < bounds_.size() && value > bounds_[bucket]) ++bucket;
    detail::bump(counts_[slot * stride_ + bucket], 1, slot);
    std::atomic<double>& sum = sums_[slot];
    if (slot == kOverflowSlot) {
      sum.fetch_add(value, std::memory_order_relaxed);
    } else {
      sum.store(sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket merged counts, one entry per bound plus the final +Inf
  /// bucket (size bounds()+1).
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;

  void reset_for_test() noexcept;

 private:
  std::vector<double> bounds_;
  std::size_t stride_ = 0;  ///< bounds_.size() + 1 (the +Inf bucket)
  /// kSlotCount consecutive stride_-sized bucket rows.
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::vector<std::atomic<double>> sums_;
};

/// One merged, stable-ordered (name-sorted) reading of every registered
/// metric. Plain data: copy, diff, serialize freely.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    std::int64_t value = 0;
  };
  struct HistogramValue {
    std::string name;
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 (+Inf last)
    std::uint64_t count = 0;
    double sum = 0.0;
  };

  std::vector<CounterValue> counters;      ///< name-sorted
  std::vector<GaugeValue> gauges;          ///< name-sorted
  std::vector<HistogramValue> histograms;  ///< name-sorted

  /// The counter's value, 0 when absent.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const noexcept;

  /// This snapshot minus `earlier`: counters and histogram buckets
  /// subtract (clamped at 0 for metrics that did not exist earlier);
  /// gauges keep their current level (a gauge is not cumulative).
  [[nodiscard]] MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Key order is the stable name order, so equal snapshots serialize to
  /// equal bytes.
  [[nodiscard]] std::string to_json() const;

  /// Prometheus-style text exposition (# TYPE lines, _bucket/_sum/_count
  /// series for histograms).
  [[nodiscard]] std::string to_text() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry every component reports into.
  [[nodiscard]] static MetricsRegistry& global();

  /// Returns the named metric, registering it on first use. Handles stay
  /// valid for the registry's lifetime — cache them (function-local static
  /// references at instrumentation sites) so the hot path never takes the
  /// registration mutex. Names must come from obs/names.hpp.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  /// First registration fixes the bucket bounds; later calls with a
  /// different ladder get the existing histogram unchanged.
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     const std::vector<double>& bounds =
                                         default_latency_bounds_ms());

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every slot of every metric. Tests only — callers must
  /// guarantee no concurrent writers (no pool mid-batch).
  void reset_for_test();

 private:
  mutable std::mutex mutex_;  ///< registration + scrape; never on a record path
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace dice::obs
