#include "explore/campaign.hpp"

#include <chrono>
#include <utility>

#include "bgp/node_impl.hpp"
#include "obs/names.hpp"

namespace dice::explore {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] MatrixOptions lower(const CampaignOptions& options,
                                  LiveStateCache* live_cache) {
  MatrixOptions lowered = options.to_matrix_options();
  lowered.live_cache = live_cache;
  return lowered;
}

}  // namespace

CampaignOptions::Builder CampaignOptions::builder() { return Builder{}; }

util::Status CampaignOptions::validate() const {
  if (strategies.empty()) {
    return util::make_error("campaign.options.no_strategies",
                            "at least one input strategy is required");
  }
  if (determinism.seeds.empty()) {
    return util::make_error("campaign.options.no_seeds",
                            "at least one seed is required");
  }
  if (determinism.implementations.empty()) {
    return util::make_error("campaign.options.no_implementations",
                            "at least one implementation-axis entry is required "
                            "(\"\" = blueprints as authored)");
  }
  for (const std::string& impl : determinism.implementations) {
    // "" is the as-authored passthrough; anything else must resolve in the
    // engine registry NOW, not when the first cell of that axis boots.
    if (!impl.empty() && !bgp::NodeImplementationRegistry::instance().contains(impl)) {
      return util::make_error("campaign.options.unknown_implementation",
                              "no node implementation registered under id '" +
                                  impl + "'");
    }
  }
  if (budgets.episodes_per_cell == 0) {
    return util::make_error("campaign.options.zero_episodes",
                            "episodes_per_cell must be >= 1");
  }
  if (budgets.inputs_per_episode == 0) {
    return util::make_error("campaign.options.zero_inputs",
                            "inputs_per_episode must be >= 1");
  }
  if (budgets.bootstrap_events == 0) {
    return util::make_error("campaign.options.zero_bootstrap_budget",
                            "bootstrap_events must be >= 1");
  }
  if (budgets.clone_event_budget == 0) {
    return util::make_error("campaign.options.zero_clone_budget",
                            "clone_event_budget must be >= 1");
  }
  if (parallelism.workers == 0 && parallelism.pool == nullptr) {
    return util::make_error("campaign.options.zero_workers",
                            "workers must be >= 1 (or supply an external pool)");
  }
  if (caching.live_cache_max_entries == 0) {
    return util::make_error("campaign.options.zero_cache_bound",
                            "live_cache_max_entries must be >= 1");
  }
  if (telemetry.progress_every_cells == 0) {
    return util::make_error("campaign.options.zero_progress_cadence",
                            "progress_every_cells must be >= 1");
  }
  if (deadline.has_value() && *deadline <= StopToken::Clock::now()) {
    return util::make_error("campaign.options.deadline_in_past",
                            "the campaign deadline has already passed");
  }
  return util::Status::success();
}

util::Result<CampaignOptions> CampaignOptions::Builder::build() const {
  if (const util::Status status = options_.validate(); !status.ok()) {
    return status.error();
  }
  return options_;
}

core::DiceOptions CampaignOptions::to_dice_options() const {
  core::DiceOptions dice;
  dice.inputs_per_episode = budgets.inputs_per_episode;
  dice.clone_event_budget = budgets.clone_event_budget;
  dice.oscillation_threshold = determinism.oscillation_threshold;
  dice.parallelism = 1;  // never a private pool; the matrix wires the shared one
  dice.bootstrap_early_exit = determinism.bootstrap_early_exit;
  return dice;
}

MatrixOptions CampaignOptions::to_matrix_options() const {
  MatrixOptions matrix;
  matrix.strategies = strategies;
  matrix.seeds = determinism.seeds;
  matrix.implementations = determinism.implementations;
  matrix.episodes_per_cell = budgets.episodes_per_cell;
  matrix.bootstrap_events = budgets.bootstrap_events;
  matrix.dice = to_dice_options();
  matrix.live_state_cache = caching.live_state_cache;
  matrix.live_cache = caching.live_cache;
  matrix.unsat_seed = caching.unsat_seed;
  matrix.strategy_seed = determinism.strategy_seed;
  matrix.nested_parallelism = parallelism.nested;
  matrix.progress_every_cells = telemetry.progress_every_cells;
  return matrix;
}

Campaign::Campaign(std::vector<ScenarioSpec> scenarios, CampaignOptions options)
    : options_(std::move(options)),
      owned_live_cache_(options_.caching.live_cache_max_entries),
      live_cache_(options_.caching.live_cache != nullptr ? options_.caching.live_cache
                                                         : &owned_live_cache_),
      owned_pool_(options_.parallelism.pool != nullptr
                      ? nullptr
                      : std::make_unique<ExplorePool>(options_.parallelism.workers)),
      pool_(options_.parallelism.pool != nullptr ? options_.parallelism.pool
                                                 : owned_pool_.get()),
      matrix_(std::move(scenarios), lower(options_, live_cache_)) {}

CampaignResult Campaign::run(CampaignObserver* observer, StopToken stop) {
  StopToken token = stop;
  if (options_.deadline.has_value()) token = token.with_deadline(*options_.deadline);

  static obs::Gauge& running_gauge =
      obs::MetricsRegistry::global().gauge(obs::names::kCampaignsRunning);
  running_gauge.add();
  // One run, one trace: reset the caller's sink so a reused Trace never
  // mixes two runs' cell ids in one canonical section.
  if (options_.telemetry.trace != nullptr) options_.telemetry.trace->clear();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();

  const auto start = Clock::now();
  CampaignResult result;
  static_cast<MatrixResult&>(result) =
      matrix_.run(*pool_, RunControl{observer, token, options_.telemetry.trace,
                                     options_.telemetry.wall_observer});
  result.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  result.telemetry = obs::MetricsRegistry::global().snapshot().delta_since(before);
  running_gauge.sub();
  return result;
}

}  // namespace dice::explore
