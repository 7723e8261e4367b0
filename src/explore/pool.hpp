// ExplorePool: the parallel execution engine behind the exploration stack —
// one GLOBAL worker budget shared by every layer that has work to fan out.
//
// The paper's Figure 2 loop explores inputs over cloned systems that
// "share nothing" with the live deployment — clone runs are therefore
// embarrassingly parallel. The pool owns a fixed set of worker threads,
// each with its own deque of tasks; a top-level batch (ScenarioMatrix
// cells) is distributed round-robin and idle workers steal from the back
// of their victims' deques, so skewed task costs (one clone hitting a
// near-oscillation, the rest quiescing instantly) still saturate every
// worker.
//
// Hierarchical task groups: run_batch is reentrant from inside a worker.
// A task that itself has parallel work (a matrix cell running an episode's
// clone batch) submits a CHILD group back into the same pool instead of
// demanding a dedicated pool slice; the submitting worker then helps —
// it executes its own group's tasks while waiting on the group's
// completion latch — and idle workers steal the children across cell
// boundaries. A 1-cell campaign on an 8-worker pool therefore keeps all 8
// workers busy: 7 steal the parked cell's clones.
//
// Steal policy: child tasks are pushed to the FRONT of the submitting
// worker's deque (depth-first: the owner drains its own episode before
// anything else), thieves take from the BACK of the fullest victim — so a
// thief prefers the coarsest work available (queued cells before another
// cell's clones) and takes clones exactly when nothing coarser is left.
//
// Determinism contract: a task's behavior depends only on the task itself
// — the immutable snapshot and the pre-generated input, never on
// worker-owned state — and results land in a slot indexed by task id, so
// the outcome of a batch is bit-identical for 1, 2 or N workers regardless
// of stealing order, nesting, or which worker executes which task. See
// docs/DETERMINISM.md for the full invariant checklist.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "dice/report.hpp"
#include "dice/system.hpp"
#include "explore/arena.hpp"

namespace dice::explore {

/// One unit of exploration work: reset a clone to the snapshot, subject the
/// input, converge, check. `index` doubles as the task's result slot and as
/// the priority that reproduces serial encounter order during fault merging.
struct CloneTask {
  std::size_t index = 0;
  /// Decode-once state (immutable, shared by all workers) and the prototype
  /// arena Systems are built from; both required. Shared_ptrs: a task in
  /// flight keeps the prepared state alive even if the store trims it
  /// mid-batch.
  std::shared_ptr<const core::SystemPrototype> prototype;
  std::shared_ptr<const snapshot::PreparedSnapshot> prepared;
  util::Bytes input;                         ///< UPDATE body; empty for the baseline clone
  bool baseline = false;                     ///< no-input clone checking current state
  sim::NodeId explorer = sim::kInvalidNode;
  sim::NodeId inject_from = sim::kInvalidNode;  ///< kInvalidNode: nothing to inject
  std::uint64_t episode = 0;
  std::size_t event_budget = 200'000;
  sim::Time time_budget = 120 * sim::kSecond;
  /// When > 0: stop the clone run as soon as any prefix's best-route flip
  /// count reaches this (DiceOptions::oscillation_early_exit). 0 = run the
  /// full event budget.
  std::uint32_t oscillation_exit_flips = 0;
};

/// What one clone run produced. Faults are raw (pre-deduplication); the
/// caller merges them through a FaultLedger keyed by task index.
struct CloneOutcome {
  bool ran = false;       ///< the arena reset succeeded and the clone ran
  bool quiesced = false;  ///< converged within budgets
  bool reused = false;    ///< served by an arena reset (no System construction)
  bool early_exit = false;  ///< terminated by the oscillation early-exit
  std::optional<util::Error> error;  ///< why the clone did not run (!ran)
  std::vector<core::FaultReport> faults;
  double clone_ms = 0.0;
  double explore_ms = 0.0;
  double check_ms = 0.0;
};

/// Property checks over a finished clone: (system, task, quiesced) -> faults.
/// The orchestrator binds this to Orchestrator::check_system.
using CheckFn = std::function<std::vector<core::FaultReport>(
    core::System&, const CloneTask&, bool quiesced)>;

/// Executes one CloneTask end to end (arena reset -> inject -> converge ->
/// check). Pure with respect to shared state: reads the immutable prepared
/// snapshot, owns everything else (`arena` must belong to the calling
/// worker). Safe to call from any worker.
[[nodiscard]] CloneOutcome run_clone_task(const CloneTask& task, const CheckFn& check,
                                          CloneArena& arena);

class ExplorePool {
 public:
  /// workers <= 1 builds a threadless pool: run_batch executes inline on
  /// the caller (the `workers=1` compatibility path — no thread is ever
  /// spawned, so single-worker behavior is exactly the serial loop; nested
  /// run_batch calls become plain nested loops).
  explicit ExplorePool(std::size_t workers);
  ~ExplorePool();
  ExplorePool(const ExplorePool&) = delete;
  ExplorePool& operator=(const ExplorePool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Runs fn(task_index, worker_id) for every index in [0, count) and
  /// blocks until all complete.
  ///
  /// Called from OUTSIDE the pool (the matrix driver, a standalone
  /// orchestrator): the indices are dealt round-robin onto the worker
  /// deques and the caller sleeps on the batch's completion latch. One
  /// external batch at a time.
  ///
  /// Called from INSIDE a worker (reentrant — a cell submitting its
  /// episode's clone batch): the indices become a CHILD group pushed onto
  /// the calling worker's own deque front; the caller HELPS (executes its
  /// group's tasks) until the group latch opens, and idle workers steal
  /// the children across cell boundaries. Nesting depth is unbounded by
  /// design; helping is restricted to the awaited group, so stacks stay
  /// shallow.
  void run_batch(std::size_t count,
                 const std::function<void(std::size_t task, std::size_t worker)>& fn);

  /// Cancellation drain: removes every still-queued task — top-level AND
  /// child — from all worker deques and returns how many were dropped.
  /// Tasks already executing finish normally; dropped ones never run, and
  /// their groups' completion latches are credited, so every in-flight
  /// run_batch still returns (callers must treat never-ran indices as
  /// skipped/interrupted). Safe to call from a worker inside a batch —
  /// this is how a cell that observes a StopToken stops the whole deal,
  /// including peer cells' queued clones, instead of letting W-1 peers
  /// dequeue doomed work. No-op on the threadless (workers <= 1) pool,
  /// whose inline loop polls the token through the task body itself.
  std::size_t drain();

  /// The worker executing the current thread, or kNoWorker when the
  /// calling thread is not one of this pool's workers. What run_batch uses
  /// to tell a child submission from an external batch.
  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t current_worker() const noexcept;

  /// The worker's private clone arena. Only the worker executing a task may
  /// touch its own arena during run_batch; between batches the caller may
  /// clear it.
  [[nodiscard]] CloneArena& arena(std::size_t worker) noexcept { return arenas_[worker]; }

 private:
  /// One submitted batch: the shared fn, the submitting worker (kNoWorker
  /// for external batches) and the completion latch. Lives on the
  /// submitter's stack for exactly the duration of its run_batch call —
  /// every task holds a pointer, and the latch (pending == 0) opens only
  /// after the last task's fn returned or the task was drained.
  struct TaskGroup {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t owner = kNoWorker;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;  ///< guarded by mutex
  };
  struct Task {
    TaskGroup* group = nullptr;
    std::size_t index = 0;
  };
  struct WorkerDeque {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t worker_id);
  /// External-caller path: round-robin deal + sleep on the group latch.
  void run_external_batch(std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& fn);
  /// Worker path: push children onto own deque front, help, wait.
  void run_child_batch(std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn,
                       std::size_t worker_id);
  /// Pops the front of `worker_id`'s own deque, or steals from the back of
  /// the fullest victim (sets `stolen`). Returns false when every deque is
  /// empty.
  [[nodiscard]] bool next_task(std::size_t worker_id, Task& task, bool& stolen);
  /// Removes one still-queued task of `group` from the owner's deque
  /// (front-to-back). Children never migrate between deques — stealing
  /// executes immediately — so the owner's deque is the only place to look.
  [[nodiscard]] bool pop_group_task(TaskGroup& group, std::size_t worker_id, Task& task);
  /// Executes fn, counts the task in the metrics registry, credits the
  /// group latch.
  void run_task(const Task& task, std::size_t worker_id, bool stolen, bool helped);
  /// Publishes `count` new queued tasks to sleeping workers.
  void announce_work();

  std::size_t workers_ = 1;
  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<CloneArena> arenas_;  ///< one per worker, touched only by its owner
  std::vector<std::thread> threads_;

  std::mutex pool_mutex_;              ///< guards shutdown_ + the sleep handshake
  std::condition_variable work_ready_;
  std::atomic<std::size_t> queued_{0};  ///< tasks sitting in deques (not in flight)
  bool shutdown_ = false;
  std::size_t inline_depth_ = 0;  ///< threadless-path nesting (single-threaded)
};

}  // namespace dice::explore
