#include "dice/orchestrator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_set>

#include "explore/ledger.hpp"
#include "explore/live_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace dice::core {

namespace {

const util::Logger& logger() {
  static util::Logger instance("dice");
  return instance;
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct EpisodeMetrics {
  obs::Counter& episodes;
  obs::Counter& snapshots;
  obs::Counter& faults;
  obs::Histogram& snapshot_ms;
  obs::Histogram& episode_ms;
};

[[nodiscard]] EpisodeMetrics& episode_metrics() {
  static EpisodeMetrics metrics{
      obs::MetricsRegistry::global().counter(obs::names::kEpisodes),
      obs::MetricsRegistry::global().counter(obs::names::kSnapshots),
      obs::MetricsRegistry::global().counter(obs::names::kFaults),
      obs::MetricsRegistry::global().histogram(obs::names::kSnapshotMs),
      obs::MetricsRegistry::global().histogram(obs::names::kEpisodeMs)};
  return metrics;
}

/// What the route-derived checks (RouteConsistencyCheck, DifferentialCheck,
/// the origin claims) conclude about one node. They read only its Loc-RIB,
/// Adj-RIB-In and config, plus the prototype's owner map.
struct RouteVerdicts {
  std::optional<std::string> consistency_fault;   ///< summary, when the check fails
  std::optional<std::string> differential_fault;  ///< summary, when the check fails
  std::vector<OriginOffense> origin_offenses;
};

[[nodiscard]] RouteVerdicts route_verdicts(const bgp::NodeImplementation& router,
                                           const OriginOwners& owners) {
  RouteVerdicts verdicts;
  if (CheckVerdict v = RouteConsistencyCheck{}.run(router); !v.ok) {
    verdicts.consistency_fault = std::move(v.summary);
  }
  if (CheckVerdict v = DifferentialCheck{}.run(router); !v.ok) {
    verdicts.differential_fault = std::move(v.summary);
  }
  verdicts.origin_offenses = offending_origin_claims(router, owners);
  return verdicts;
}

/// Builds the fault reports of one checked clone, every one stamped with
/// that clone's episode, explorer and input.
class FaultSink {
 public:
  FaultSink(std::uint64_t episode, sim::NodeId explorer, const util::Bytes& input)
      : episode_(episode), explorer_(explorer), input_(input) {}

  void add(FaultClass fault_class, std::string_view check, sim::NodeId node,
           std::string description) {
    FaultReport report;
    report.fault_class = fault_class;
    report.check = std::string(check);
    report.description = std::move(description);
    report.node = node;
    report.episode = episode_;
    report.explorer = explorer_;
    report.input = input_;
    report.potential = !input_.empty();  // baseline clones carry no input
    reports_.push_back(std::move(report));
  }

  /// A clone that cannot quiesce within budget is itself evidence of a
  /// policy conflict (persistent route oscillation).
  void add_non_quiescence() {
    add(FaultClass::kPolicyConflict, "non-quiescence", explorer_,
        "clone did not reach quiescence within budget (persistent oscillation)");
  }

  void add_route_verdicts(sim::NodeId node, const RouteVerdicts& verdicts) {
    if (verdicts.consistency_fault.has_value()) {
      add(FaultClass::kOperatorMistake, RouteConsistencyCheck{}.name(), node,
          *verdicts.consistency_fault);
    }
    if (verdicts.differential_fault.has_value()) {
      add(FaultClass::kImplementationDivergence, DifferentialCheck{}.name(), node,
          *verdicts.differential_fault);
    }
  }

  void add_origin_violation(std::uint64_t prefix_hash, bgp::Asn observed, bgp::Asn owner,
                            sim::NodeId first_observer, std::size_t observations) {
    add(FaultClass::kOperatorMistake, "route-origin", first_observer,
        util::format(
            "prefix hash %016llx originated by AS%u but owned by AS%u (seen on %zu node(s))",
            static_cast<unsigned long long>(prefix_hash), observed, owner, observations));
  }

  [[nodiscard]] const std::vector<FaultReport>& reports() const noexcept { return reports_; }
  [[nodiscard]] std::vector<FaultReport> take() && { return std::move(reports_); }

 private:
  std::uint64_t episode_;
  sim::NodeId explorer_;
  const util::Bytes& input_;
  std::vector<FaultReport> reports_;
};

/// RouteVerdicts memoized on the checkpoint a clean node was restored
/// from. They also depend on the node's config and the owner map, so the
/// memo names the prototype and node it was computed for.
struct CleanNodeVerdicts final : snapshot::CheckpointMemo {
  std::weak_ptr<const SystemPrototype> prototype;
  sim::NodeId node = sim::kInvalidNode;
  RouteVerdicts verdicts;

  /// Owner identity, not address: a freed prototype never matches a new one.
  [[nodiscard]] bool same_prototype(
      const std::shared_ptr<const SystemPrototype>& other) const noexcept {
    return !prototype.owner_before(other) && !other.owner_before(prototype);
  }
};

#ifdef DICE_CHECK_AUDIT
/// Sanitizer builds: the incremental check must reproduce the full one
/// exactly, content and order. Any difference is a missed lineage version
/// bump (bgp::CheckpointLineage::bump) or a cache bug, and aborts.
void audit_against_full(const std::vector<FaultReport>& incremental,
                        const std::vector<FaultReport>& full) {
  if (incremental == full) return;
  std::fprintf(stderr, "check audit: incremental check differs from the full check\n");
  for (std::size_t i = 0; i < std::max(incremental.size(), full.size()); ++i) {
    std::fprintf(stderr, "  [%zu] incremental: %s\n        full:        %s\n", i,
                 i < incremental.size() ? incremental[i].to_string().c_str() : "-",
                 i < full.size() ? full[i].to_string().c_str() : "-");
  }
  std::abort();
}
#endif

}  // namespace

Orchestrator::Orchestrator(bgp::SystemBlueprint blueprint, DiceOptions options)
    : Orchestrator(std::make_shared<const SystemPrototype>(std::move(blueprint)), options) {}

Orchestrator::Orchestrator(std::shared_ptr<const SystemPrototype> prototype,
                           DiceOptions options)
    : prototype_(std::move(prototype)),
      options_(options),
      live_(std::make_unique<System>(prototype_)) {
  // Delta checkpoints: each episode's snapshot re-encodes only the routers
  // that changed since the previous prepared snapshot. Fault bytes do not
  // depend on it (docs/SNAPSHOT_FORMAT.md).
  live_->set_delta_checkpoints(true);
  // One pool runs every clone batch. A shared pool replaces the owned one
  // entirely (one global worker budget, no second thread team); the early-
  // exit contract is sequential, so it always gets a threadless pool.
  if (options_.stop_on_first_fault) {
    owned_pool_ = std::make_unique<explore::ExplorePool>(1);
  } else if (options_.shared_pool == nullptr) {
    owned_pool_ = std::make_unique<explore::ExplorePool>(options_.parallelism);
  }
  pool_ = owned_pool_ != nullptr ? owned_pool_.get() : options_.shared_pool;
}

std::uint32_t Orchestrator::bootstrap_flip_exit() const noexcept {
  // Shared by bootstrap() and the cache key: a donated state is only valid
  // for consumers converging under the SAME early-exit point.
  return options_.bootstrap_early_exit ? options_.oscillation_threshold : 0;
}

bool Orchestrator::bootstrap(std::size_t max_events) {
  live_->start();
  // Route through converge_bounded: with bootstrap_early_exit a dispute-
  // wheel live system stops at the (deterministic, event-count-polled)
  // flip threshold instead of exhausting the whole bootstrap budget.
  last_bootstrap_ =
      live_->converge_bounded(max_events, 3600 * sim::kSecond, bootstrap_flip_exit());
  bootstrap_from_cache_ = false;
  logger().info() << "live system "
                  << (last_bootstrap_.quiesced ? "converged" : "did NOT converge")
                  << (last_bootstrap_.oscillation_exit ? " (oscillation early-exit)" : "")
                  << " (" << live_->total_loc_rib_routes() << " routes, "
                  << live_->established_sessions() << " sessions)";
  return last_bootstrap_.quiesced;
}

bool Orchestrator::bootstrap_cached(explore::LiveStateCache& cache, std::uint64_t seed,
                                    std::size_t max_events) {
  // Registered before any failure, so the exposition shows a zero.
  static obs::Counter& resume_failures =
      obs::MetricsRegistry::global().counter(obs::names::kLiveCacheResumeFailures);
  const explore::LiveStateCache::Key key{prototype_, seed, max_events,
                                         bootstrap_flip_exit()};
  const explore::LiveStateCache::Lookup lookup =
      cache.get_or_compute(key, [&]() -> std::shared_ptr<const snapshot::PreparedLiveState> {
        if (!bootstrap(max_events)) {
          // Only a quiescent state is exactly reproducible from a cut:
          // restoring a churning system re-injects its in-flight frames on
          // a fresh schedule — a different interleaving — and verdicts must
          // stay scheduling-independent. Mark the key uncacheable; replays
          // are cheap now that the early-exit governs bootstrap too.
          return nullptr;
        }
        auto state = live_->capture_live_state();
        if (state != nullptr) {
          state->quiesced = last_bootstrap_.quiesced;
          state->oscillation_exit = last_bootstrap_.oscillation_exit;
        }
        return state;
      });
  if (!lookup.hit) {
    // This orchestrator ran the bootstrap itself (and, when it quiesced,
    // donated the capture — the marker sweep left its router state intact).
    return last_bootstrap_.quiesced;
  }
  if (lookup.state == nullptr) return bootstrap(max_events);  // uncacheable key
  if (auto status = live_->resume_from(*lookup.state); !status) {
    resume_failures.add();
    logger().warn() << "live-state resume failed (" << status.error().to_string()
                    << "); bootstrapping fresh";
    // A mid-apply failure leaves the instance half-seeded with foreign
    // state; rebuild it so the fallback bootstrap starts from the same
    // blank System a fresh cell would.
    live_ = std::make_unique<System>(prototype_);
    return bootstrap(max_events);
  }
  last_bootstrap_ = {lookup.state->quiesced, lookup.state->oscillation_exit};
  bootstrap_from_cache_ = true;
  logger().info() << "live system resumed from cached bootstrap ("
                  << live_->total_loc_rib_routes() << " routes, "
                  << live_->established_sessions() << " sessions)";
  return last_bootstrap_.quiesced;
}

sim::NodeId Orchestrator::next_explorer() {
  const sim::NodeId explorer = next_explorer_;
  next_explorer_ = static_cast<sim::NodeId>((next_explorer_ + 1) % prototype_->size());
  return explorer;
}

std::vector<FaultReport> Orchestrator::check_system(System& system, std::uint64_t episode,
                                                    sim::NodeId explorer,
                                                    const util::Bytes& input,
                                                    bool quiesced) const {
  static obs::Counter& reused_counter =
      obs::MetricsRegistry::global().counter(obs::names::kCheckVerdictsReused);
  FaultSink faults{episode, explorer, input};
  if (!quiesced) faults.add_non_quiescence();

  const CrashCheck crash_check;
  const OscillationCheck oscillation_check(options_.oscillation_threshold);
  const std::shared_ptr<const SystemPrototype>& prototype = system.prototype();
  const OriginOwners& owners = prototype->origin_owners();

  // (prefix_hash, bad origin) -> (first observer, observations), the
  // running form of aggregate_origin_claims' observer lists.
  std::map<std::pair<std::uint64_t, bgp::Asn>, std::pair<sim::NodeId, std::size_t>> offenders;
  std::uint64_t reused = 0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    const bgp::NodeImplementation& router = system.router(node);

    // Crash and oscillation read counters that move in every clone; they
    // always run live (O(1) and O(flips)).
    if (CheckVerdict v = crash_check.run(router); !v.ok) {
      faults.add(FaultClass::kProgrammingError, v.check, node, std::move(v.summary));
    }
    if (CheckVerdict v = oscillation_check.run(router); !v.ok) {
      faults.add(FaultClass::kPolicyConflict, v.check, node, std::move(v.summary));
    }

    // The route-derived verdicts of a clean node are those of the
    // checkpoint it was restored from: computed once, memoized on that
    // checkpoint, re-stamped with this clone's identity by `faults`.
    std::shared_ptr<const CleanNodeVerdicts> memo;
    RouteVerdicts dirty;
    const RouteVerdicts* verdicts = &dirty;
    if (const auto checkpoint = router.clean_checkpoint()) {
      memo = std::dynamic_pointer_cast<const CleanNodeVerdicts>(checkpoint->memo());
      if (memo != nullptr && memo->node == node && memo->same_prototype(prototype)) {
        ++reused;
      } else {
        auto fresh = std::make_shared<CleanNodeVerdicts>();
        fresh->prototype = prototype;
        fresh->node = node;
        fresh->verdicts = route_verdicts(router, owners);
        checkpoint->set_memo(fresh);
        memo = std::move(fresh);
      }
      verdicts = &memo->verdicts;
    } else {
      dirty = route_verdicts(router, owners);
    }
    faults.add_route_verdicts(node, *verdicts);
    for (const OriginOffense& offense : verdicts->origin_offenses) {
      offenders.try_emplace({offense.prefix_hash, offense.origin}, node, 0)
          .first->second.second += offense.count;
    }
  }
  reused_counter.add(reused);

  // Cross-node origin authorization over the narrow interface.
  for (const auto& [key, observed] : offenders) {
    faults.add_origin_violation(key.first, key.second, owners.at(key.first), observed.first,
                                observed.second);
  }
#ifdef DICE_CHECK_AUDIT
  audit_against_full(faults.reports(),
                     check_system_full(system, episode, explorer, input, quiesced));
#endif
  return std::move(faults).take();
}

std::vector<FaultReport> Orchestrator::check_system_full(System& system, std::uint64_t episode,
                                                         sim::NodeId explorer,
                                                         const util::Bytes& input,
                                                         bool quiesced) const {
  FaultSink faults{episode, explorer, input};
  if (!quiesced) faults.add_non_quiescence();

  const CrashCheck crash_check;
  const OscillationCheck oscillation_check(options_.oscillation_threshold);
  const RouteConsistencyCheck consistency_check;
  const DifferentialCheck differential_check;
  const OriginClaimCheck origin_check;

  std::vector<CheckVerdict> origin_verdicts;
  for (std::size_t i = 0; i < system.size(); ++i) {
    const sim::NodeId node = static_cast<sim::NodeId>(i);
    const bgp::NodeImplementation& router = system.router(node);

    if (CheckVerdict v = crash_check.run(router); !v.ok) {
      faults.add(FaultClass::kProgrammingError, v.check, node, std::move(v.summary));
    }
    if (CheckVerdict v = oscillation_check.run(router); !v.ok) {
      faults.add(FaultClass::kPolicyConflict, v.check, node, std::move(v.summary));
    }
    if (CheckVerdict v = consistency_check.run(router); !v.ok) {
      faults.add(FaultClass::kOperatorMistake, v.check, node, std::move(v.summary));
    }
    // Differential oracle: an invariant (never adds a fault) on the
    // reference engine, the cross-implementation divergence signal on any
    // other — so all-BgpRouter fault sets are byte-identical to pre-
    // heterogeneity runs.
    if (CheckVerdict v = differential_check.run(router); !v.ok) {
      faults.add(FaultClass::kImplementationDivergence, v.check, node, std::move(v.summary));
    }
    origin_verdicts.push_back(origin_check.run(router));
  }

  // Cross-node origin authorization over the narrow interface.
  const auto owners = collect_owners(origin_verdicts, system.node_asns());
  for (const OriginViolation& violation : aggregate_origin_claims(origin_verdicts, owners)) {
    faults.add_origin_violation(
        violation.prefix_hash, violation.observed_origin, violation.legitimate_origin,
        violation.observers.empty() ? explorer : violation.observers.front(),
        violation.observers.size());
  }
  return std::move(faults).take();
}

EpisodeResult Orchestrator::run_episode(InputStrategy& strategy) {
  EpisodeResult result;
  result.episode = ++episode_counter_;
  result.explorer = next_explorer();

  EpisodeMetrics& metrics = episode_metrics();
  metrics.episodes.add();
  const auto episode_start = Clock::now();
  // Span attribution: the pool worker running this cell, 0 for standalone
  // harness threads.
  const std::size_t cell_worker = pool_->current_worker();
  const std::uint32_t span_worker =
      cell_worker == explore::ExplorePool::kNoWorker ? 0 : static_cast<std::uint32_t>(cell_worker);
  obs::Span episode_span(options_.trace, "episode", span_worker, options_.trace_cell,
                         result.episode);

  // Step 2: consistent shadow snapshot (marker protocol on the live sim).
  const auto snapshot_start = Clock::now();
  {
    obs::Span snapshot_span(options_.trace, "snapshot", span_worker,
                            options_.trace_cell, result.episode);
    result.snapshot_id = live_->take_snapshot(result.explorer);
  }
  result.snapshot_ms = ms_since(snapshot_start);
  metrics.snapshot_ms.observe(result.snapshot_ms);
  if (result.snapshot_id == 0) {
    logger().warn() << "episode " << result.episode << ": snapshot failed";
    metrics.episode_ms.observe(ms_since(episode_start));
    return result;
  }
  metrics.snapshots.add();
  const snapshot::Snapshot* snap = live_->snapshots().find(result.snapshot_id);
  result.snapshot_bytes = snap->total_state_bytes();
  for (const auto& [node, checkpoint] : snap->nodes) {
    if (checkpoint.state.size() == 1 &&
        checkpoint.state[0] == snapshot::kCheckpointSameAsBaseline) {
      ++result.snapshot_delta_nodes;
    }
  }

  // Decode-once: parse every checkpoint into the shared PreparedSnapshot
  // here, on the orchestrator thread, before any clone task exists. Workers
  // only ever apply the typed state.
  const auto prepare_start = Clock::now();
  const std::shared_ptr<const snapshot::PreparedSnapshot> prepared =
      live_->prepare_snapshot(result.snapshot_id);
  result.restore_ms = ms_since(prepare_start);
  if (prepared == nullptr) {
    result.error = util::make_error("dice.episode.prepare_failed",
                                    "snapshot " + std::to_string(result.snapshot_id));
    logger().error() << "episode " << result.episode << ": "
                     << result.error->to_string();
    metrics.episode_ms.observe(ms_since(episode_start));
    return result;
  }

  strategy.on_episode(*live_, result.explorer);

  // Choose the injection peer: rotate over the explorer's neighbors so
  // different episodes exercise different import policies.
  const std::vector<sim::NodeId> neighbors = live_->network().neighbors(result.explorer);

  // Steps 3..5 as a task batch: input generation stays serial (strategies
  // are stateful); clone execution fans out. Task order is the serial
  // encounter order — the baseline clone first, then one task per input —
  // and doubles as the fault-merge priority.
  std::vector<explore::CloneTask> tasks;
  const auto make_task = [&] {
    explore::CloneTask task;
    task.index = tasks.size();
    task.prototype = prototype_;
    task.prepared = prepared;
    task.explorer = result.explorer;
    task.episode = result.episode;
    task.event_budget = options_.clone_event_budget;
    task.time_budget = options_.clone_time_budget;
    if (options_.oscillation_early_exit) {
      task.oscillation_exit_flips = options_.oscillation_threshold;
    }
    return task;
  };
  // Baseline clone: checks the *current* system state with no new input
  // (catches faults already manifest, e.g. a deployed hijack).
  tasks.push_back(make_task());
  tasks.back().baseline = true;

  const explore::CheckFn check = [this](System& system, const explore::CloneTask& task,
                                        bool quiesced) {
    return check_system(system, task.episode, task.explorer, task.input, quiesced);
  };

  // Workers push raw faults into the shared episode ledger as they finish;
  // the ledger deduplicates by signature and keeps serial-order evidence.
  explore::FaultLedger ledger;
  std::vector<explore::CloneOutcome> outcomes;
  // Between-clone cancellation point (the only one inside an episode): a
  // clone that started always finishes, so reported faults only ever come
  // from whole clone runs. `stop_possible` keeps the no-token fast path an
  // untaken branch.
  std::atomic<bool> stop_observed{false};
  const bool stoppable = options_.stop.stop_possible();
  // Dispatch receipt: a task the pool never handed to execute was swept by
  // an ExplorePool::drain() — possibly one triggered by a token THIS
  // episode cannot observe. Such an episode must report interrupted rather
  // than pass a truncated fault list off as complete.
  std::vector<unsigned char> dispatched;
  const auto execute = [&](std::size_t index, std::size_t worker) {
    dispatched[index] = 1;
    // Early exit: the pool is threadless, so this is the serial loop's
    // break — every later task returns without running.
    if (options_.stop_on_first_fault && !ledger.empty()) return;
    if (stoppable && options_.stop.stop_requested()) {
      stop_observed.store(true, std::memory_order_relaxed);
      return;  // outcome stays !ran; the episode reports interrupted
    }
    obs::Span clone_span(options_.trace, "clone", static_cast<std::uint32_t>(worker),
                         options_.trace_cell, tasks[index].episode,
                         static_cast<std::uint32_t>(index));
    outcomes[index] = explore::run_clone_task(tasks[index], check, pool_->arena(worker));
    // 32-bit priority bands: a task would need 2^32 faults to bleed into
    // the next task's band (the old 16-bit band left only 65k headroom).
    assert(outcomes[index].faults.size() < (std::uint64_t{1} << 32));
    ledger.record_all(std::move(outcomes[index].faults),
                      static_cast<std::uint64_t>(index) << 32);
  };
  // Runs tasks [first, tasks.size()) as one pool batch. On a shared pool
  // called from one of its workers (a nested matrix cell) the batch becomes
  // child tasks that idle workers steal; otherwise it is an external batch.
  const auto run_from = [&](std::size_t first) {
    outcomes.resize(tasks.size());
    dispatched.resize(tasks.size(), 0);
    pool_->run_batch(tasks.size() - first, [&](std::size_t offset, std::size_t worker) {
      execute(first + offset, worker);
    });
  };

  std::size_t first_input = 0;
  if (options_.stop_on_first_fault) {
    // The baseline clone runs — and can end the episode — before any input
    // is generated, so a standing fault never pays for (or advances) the
    // strategy's generation state.
    run_from(0);
    first_input = tasks.size();
  }
  if (!options_.stop_on_first_fault || ledger.empty()) {
    const std::vector<util::Bytes> batch = strategy.next_batch(options_.inputs_per_episode);
    tasks.reserve(tasks.size() + batch.size());
    for (std::size_t input_index = 0; input_index < batch.size(); ++input_index) {
      explore::CloneTask task = make_task();
      task.input = batch[input_index];
      if (!neighbors.empty()) {
        task.inject_from = neighbors[input_index % neighbors.size()];
      }
      tasks.push_back(std::move(task));
    }
    run_from(first_input);
  }

  // Bounded memory for long-running online testing: every episode takes a
  // fresh snapshot, so older raw + prepared entries are dead weight. All
  // clone tasks have completed (workers hold no store pointers anymore;
  // prepared state is shared_ptr-held regardless), so trimming here is the
  // store contract's "between episodes" window.
  live_->snapshots().trim(1);

  result.interrupted = stop_observed.load(std::memory_order_relaxed);
  if (!result.interrupted) {
    // A drain can also skip tasks WITHOUT execute ever observing a token:
    // a cancelling peer cell sweeps every queued task in the shared pool,
    // including this episode's still-queued clones — and the sweeping
    // token need not be one this episode can see. Any undispatched task
    // means the fault list is partial — same contract as an observed stop.
    // (A threadless pool never drains: it queues nothing.)
    for (const unsigned char ran : dispatched) {
      if (ran == 0) {
        result.interrupted = true;
        break;
      }
    }
  }

  // Serial merge, in task order: counters, timings, then the deduplicated
  // fault list (canonical order — identical for any worker count).
  for (std::size_t index = 0; index < outcomes.size(); ++index) {
    const explore::CloneOutcome& outcome = outcomes[index];
    result.clone_ms += outcome.clone_ms;
    if (outcome.error.has_value() && !result.error.has_value()) {
      result.error = util::make_error("dice.episode.clone_reset_failed",
                                      "task " + std::to_string(index) + ": " +
                                          outcome.error->to_string());
      logger().error() << "episode " << result.episode << ": "
                       << result.error->to_string();
    }
    if (!outcome.ran) continue;
    ++result.clones_run;
    if (!tasks[index].baseline) ++result.inputs_subjected;
    result.explore_ms += outcome.explore_ms;
    result.check_ms += outcome.check_ms;
    if (!outcome.quiesced) ++result.clones_non_quiescent;
    if (outcome.reused) ++result.clones_reused;
    if (outcome.early_exit) ++result.clones_early_exit;
  }
  for (FaultReport& fault : ledger.snapshot_sorted()) {
    const std::uint64_t key = fault_key(fault);
    logger().info() << "episode " << result.episode << ": " << fault.to_string();
    result.faults.push_back(fault);
    metrics.faults.add();
    // The global list deduplicates across episodes (a standing fault
    // would otherwise be re-reported every episode).
    if (known_fault_keys_.insert(key).second) {
      all_faults_.push_back(std::move(fault));
    }
  }
  metrics.episode_ms.observe(ms_since(episode_start));
  return result;
}

std::size_t Orchestrator::explore_until_fault(InputStrategy& strategy, FaultClass wanted,
                                              std::size_t max_episodes) {
  std::size_t inputs_total = 0;
  for (std::size_t i = 0; i < max_episodes; ++i) {
    EpisodeResult episode = run_episode(strategy);
    // Count baseline clone as one probe plus each subjected input.
    inputs_total += episode.clones_run;
    for (const FaultReport& fault : episode.faults) {
      if (fault.fault_class == wanted) return inputs_total;
    }
  }
  return SIZE_MAX;
}

}  // namespace dice::core
