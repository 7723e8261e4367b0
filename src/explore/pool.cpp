#include "explore/pool.hpp"

#include <algorithm>
#include <chrono>

#include "bgp/sym_update.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::explore {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Registry handles resolved once (registration takes a mutex; recording
/// through a cached handle does not).
struct PoolMetrics {
  obs::Counter& batches;
  obs::Counter& child_batches;
  obs::Counter& tasks;
  obs::Counter& child_tasks;
  obs::Counter& steals;
  obs::Counter& child_steals;
  obs::Counter& helped;
  obs::Counter& drained;
  obs::Counter& clones;
  obs::Counter& clones_reused;
  obs::Counter& clones_early_exit;
  obs::Histogram& clone_ms;
};

[[nodiscard]] PoolMetrics& pool_metrics() {
  static PoolMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kPoolBatches),
      obs::MetricsRegistry::global().counter(obs::names::kPoolChildBatches),
      obs::MetricsRegistry::global().counter(obs::names::kPoolTasks),
      obs::MetricsRegistry::global().counter(obs::names::kPoolChildTasks),
      obs::MetricsRegistry::global().counter(obs::names::kPoolSteals),
      obs::MetricsRegistry::global().counter(obs::names::kPoolChildSteals),
      obs::MetricsRegistry::global().counter(obs::names::kPoolHelped),
      obs::MetricsRegistry::global().counter(obs::names::kPoolDrained),
      obs::MetricsRegistry::global().counter(obs::names::kClones),
      obs::MetricsRegistry::global().counter(obs::names::kClonesReused),
      obs::MetricsRegistry::global().counter(obs::names::kClonesEarlyExit),
      obs::MetricsRegistry::global().histogram(obs::names::kCloneMs)};
  return metrics;
}

// Which pool (if any) owns the current thread. A worker of pool A that
// indirectly constructs pool B (an orchestrator with its own parallelism)
// still resolves correctly: current_worker() compares the pool pointer.
thread_local const ExplorePool* tl_pool = nullptr;
thread_local std::size_t tl_worker = ExplorePool::kNoWorker;

}  // namespace

CloneOutcome run_clone_task(const CloneTask& task, const CheckFn& check, CloneArena& arena) {
  CloneOutcome outcome;
  const auto clone_start = Clock::now();
  auto acquired = arena.acquire(task.prototype, *task.prepared, outcome.reused);
  outcome.clone_ms = ms_since(clone_start);
  if (!acquired) {
    outcome.error = acquired.error();
    return outcome;
  }
  core::System* clone = acquired.value();
  outcome.ran = true;
  // Flip counters restart per clone: oscillation evidence must come from
  // this clone's own convergence, not inherited live-system churn.
  for (std::size_t i = 0; i < clone->size(); ++i) {
    clone->router(static_cast<sim::NodeId>(i)).reset_flip_counters();
  }

  const auto explore_start = Clock::now();
  if (!task.baseline && task.inject_from != sim::kInvalidNode) {
    clone->inject_message(task.inject_from, task.explorer,
                          bgp::wrap_update_body(task.input));
  }
  const core::System::ConvergeOutcome converged = clone->converge_bounded(
      task.event_budget, task.time_budget, task.oscillation_exit_flips);
  outcome.quiesced = converged.quiesced;
  outcome.early_exit = converged.oscillation_exit;
  outcome.explore_ms = ms_since(explore_start);

  const auto check_start = Clock::now();
  outcome.faults = check(*clone, task, outcome.quiesced);
  outcome.check_ms = ms_since(check_start);

  PoolMetrics& metrics = pool_metrics();
  metrics.clones.add();
  if (outcome.reused) metrics.clones_reused.add();
  if (outcome.early_exit) metrics.clones_early_exit.add();
  metrics.clone_ms.observe(outcome.clone_ms);
  return outcome;
}

ExplorePool::ExplorePool(std::size_t workers) : workers_(std::max<std::size_t>(workers, 1)) {
  deques_.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  arenas_ = std::vector<CloneArena>(workers_);
  if (workers_ <= 1) return;  // threadless compatibility path
  threads_.reserve(workers_);
  for (std::size_t i = 0; i < workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ExplorePool::~ExplorePool() {
  {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

std::size_t ExplorePool::current_worker() const noexcept {
  return tl_pool == this ? tl_worker : kNoWorker;
}

bool ExplorePool::next_task(std::size_t worker_id, Task& task, bool& stolen) {
  {
    WorkerDeque& own = *deques_[worker_id];
    const std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = own.tasks.front();
      own.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      stolen = false;
      return true;
    }
  }
  // Steal from the back of the fullest victim, so the thief takes the work
  // the owner would reach last (classic work-stealing order). The back of a
  // deque is also the COARSEST work available — a cell's child clones are
  // pushed to its front — so thieves prefer whole queued cells and take
  // another cell's clones exactly when nothing coarser remains.
  while (true) {
    std::size_t victim = workers_;
    std::size_t victim_depth = 0;
    for (std::size_t v = 0; v < workers_; ++v) {
      if (v == worker_id) continue;
      const std::lock_guard<std::mutex> lock(deques_[v]->mutex);
      if (deques_[v]->tasks.size() > victim_depth) {
        victim_depth = deques_[v]->tasks.size();
        victim = v;
      }
    }
    if (victim == workers_) return false;  // everything drained
    const std::lock_guard<std::mutex> lock(deques_[victim]->mutex);
    if (deques_[victim]->tasks.empty()) continue;  // raced; rescan
    task = deques_[victim]->tasks.back();
    deques_[victim]->tasks.pop_back();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    stolen = true;
    return true;
  }
}

bool ExplorePool::pop_group_task(TaskGroup& group, std::size_t worker_id, Task& task) {
  WorkerDeque& own = *deques_[worker_id];
  const std::lock_guard<std::mutex> lock(own.mutex);
  for (auto it = own.tasks.begin(); it != own.tasks.end(); ++it) {
    if (it->group == &group) {
      task = *it;
      own.tasks.erase(it);
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ExplorePool::run_task(const Task& task, std::size_t worker_id, bool stolen,
                           bool helped) {
  (*task.group->fn)(task.index, worker_id);
  // Counted BEFORE the latch credit: a submitter that reads the registry
  // once run_batch returns sees every task of its batch (the latch mutex
  // orders these adds before its reads).
  const bool child = task.group->owner != kNoWorker;
  PoolMetrics& metrics = pool_metrics();
  metrics.tasks.add();
  if (child) metrics.child_tasks.add();
  if (stolen) metrics.steals.add();
  if (stolen && child) metrics.child_steals.add();
  if (helped) metrics.helped.add();
  // Credit the latch under the group mutex: the waiter can only observe
  // pending == 0 (and destroy the group) after this critical section
  // releases, so the notify below never touches a dead group.
  const std::lock_guard<std::mutex> lock(task.group->mutex);
  if (--task.group->pending == 0) task.group->done.notify_all();
}

void ExplorePool::announce_work() {
  // The empty critical section is the publication handshake: a worker that
  // saw queued_ == 0 still holds pool_mutex_ until it sleeps, so acquiring
  // it here guarantees our notify lands after the worker is waiting.
  { const std::lock_guard<std::mutex> lock(pool_mutex_); }
  work_ready_.notify_all();
}

void ExplorePool::worker_loop(std::size_t worker_id) {
  tl_pool = this;
  tl_worker = worker_id;
  while (true) {
    Task task;
    bool stolen = false;
    if (next_task(worker_id, task, stolen)) {
      run_task(task, worker_id, stolen, /*helped=*/false);
      continue;
    }
    std::unique_lock<std::mutex> lock(pool_mutex_);
    work_ready_.wait(lock, [&] {
      return shutdown_ || queued_.load(std::memory_order_relaxed) > 0;
    });
    if (shutdown_) return;
  }
}

void ExplorePool::run_external_batch(std::size_t count,
                                     const std::function<void(std::size_t, std::size_t)>& fn) {
  TaskGroup group;
  group.fn = &fn;
  group.owner = kNoWorker;
  group.pending = count;
  for (std::size_t i = 0; i < count; ++i) {
    WorkerDeque& deque = *deques_[i % workers_];
    const std::lock_guard<std::mutex> lock(deque.mutex);
    deque.tasks.push_back(Task{&group, i});
    // Increment under the SAME mutex the pop path decrements under: for any
    // task the add strictly precedes the sub, so queued_ can never transit
    // through an unsigned underflow (which would read as "work everywhere"
    // and busy-spin every idle worker until the count caught up).
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  announce_work();
  std::unique_lock<std::mutex> lock(group.mutex);
  group.done.wait(lock, [&] { return group.pending == 0; });
}

void ExplorePool::run_child_batch(std::size_t count,
                                  const std::function<void(std::size_t, std::size_t)>& fn,
                                  std::size_t worker_id) {
  TaskGroup group;
  group.fn = &fn;
  group.owner = worker_id;
  group.pending = count;
  {
    WorkerDeque& own = *deques_[worker_id];
    const std::lock_guard<std::mutex> lock(own.mutex);
    // Front of the owner's deque, task 0 first: depth-first — the owner
    // finishes its episode's clones before touching any queued cell. The
    // count moves under the deque mutex for the same no-underflow reason
    // as the external deal.
    for (std::size_t i = count; i-- > 0;) {
      own.tasks.push_front(Task{&group, i});
    }
    queued_.fetch_add(count, std::memory_order_relaxed);
  }
  announce_work();
  // Help-then-wait: execute this group's still-queued tasks ourselves;
  // once every remaining task is in flight on a thief, sleep on the latch.
  // Helping is restricted to the awaited group so a waiting cell never
  // starts ANOTHER cell underneath itself (bounded stacks by construction).
  while (true) {
    Task task;
    if (pop_group_task(group, worker_id, task)) {
      run_task(task, worker_id, /*stolen=*/false, /*helped=*/true);
      continue;
    }
    std::unique_lock<std::mutex> lock(group.mutex);
    group.done.wait(lock, [&] { return group.pending == 0; });
    return;
  }
}

void ExplorePool::run_batch(std::size_t count,
                            const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t worker = current_worker();
  if (worker != kNoWorker || (workers_ <= 1 && inline_depth_ > 0)) {
    pool_metrics().child_batches.add();
  } else {
    pool_metrics().batches.add();
  }
  if (workers_ <= 1) {
    // Inline compatibility path: no threads, no queues — the exact serial
    // loop. Reentrant calls (a cell's episode batch) are plain nested loops.
    ++inline_depth_;
    const bool nested = inline_depth_ > 1;
    for (std::size_t i = 0; i < count; ++i) fn(i, 0);
    --inline_depth_;
    PoolMetrics& metrics = pool_metrics();
    metrics.tasks.add(count);
    if (nested) {
      // Inline children are by definition executed by their submitter —
      // count them as helped so the helped + child_steals == child_tasks
      // conservation law holds on the threadless path too.
      metrics.child_tasks.add(count);
      metrics.helped.add(count);
    }
    return;
  }
  if (worker != kNoWorker) {
    run_child_batch(count, fn, worker);
  } else {
    run_external_batch(count, fn);
  }
}

std::size_t ExplorePool::drain() {
  // Sweep every deque first, then credit the groups: a group whose last
  // queued task is dropped here may have a waiter that destroys it the
  // moment pending hits zero, so the latch update is the final touch.
  std::vector<Task> dropped;
  for (const std::unique_ptr<WorkerDeque>& deque : deques_) {
    const std::lock_guard<std::mutex> lock(deque->mutex);
    dropped.insert(dropped.end(), deque->tasks.begin(), deque->tasks.end());
    deque->tasks.clear();
  }
  if (dropped.empty()) return 0;
  queued_.fetch_sub(dropped.size(), std::memory_order_relaxed);
  pool_metrics().drained.add(dropped.size());
  for (const Task& task : dropped) {
    const std::lock_guard<std::mutex> lock(task.group->mutex);
    if (--task.group->pending == 0) task.group->done.notify_all();
  }
  return dropped.size();
}

}  // namespace dice::explore
