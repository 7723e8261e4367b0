#include "dice/inputs.hpp"

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace dice::core {

// ---------------------------------------------------------------------------
// ConcolicStrategy
// ---------------------------------------------------------------------------

ConcolicStrategy::ConcolicStrategy() : ConcolicStrategy(Options{}) {}

ConcolicStrategy::ConcolicStrategy(Options options)
    : options_(options), rng_(options.rng_seed) {}

ConcolicStrategy::~ConcolicStrategy() = default;

void ConcolicStrategy::on_episode(const System& live, sim::NodeId explorer) {
  const bgp::NodeImplementation& router = live.router(explorer);
  explorer_config_ = router.config();

  env_ = bgp::SymHandlerEnv{};
  env_.config = &explorer_config_;
  // Explore the import path of the first configured neighbor by default;
  // the paper explores local node actions, and the neighbor choice rotates
  // with the explorer across episodes.
  env_.neighbor_index = 0;
  for (const auto& [prefix, route] : router.loc_rib().table()) {
    env_.current_best[prefix] = bgp::CurrentBest{
        route.attrs.effective_local_pref(),
        static_cast<std::uint32_t>(route.attrs.as_path.selection_length())};
  }

  // Fresh engine per episode: exploration always restarts from *current*
  // state (paper insight i — no long input-history replay).
  engine_ = std::make_unique<concolic::ConcolicEngine>(
      [this](concolic::SymCtx& ctx) { (void)bgp::sym_handle_update(ctx, env_); },
      options_.engine);
  engine_->set_solver_memo(options_.solver_memo);
  published_solver_ = concolic::SolverStats{};

  // Seeds are strictly valid protocol messages (paper: DiCE "reuses
  // existing protocol messages to the extent possible"); everything
  // beyond them is *derived* by constraint negation, not pre-baked.
  const fuzz::BgpGrammarSeeds seeds = fuzz::BgpGrammarSeeds::from_config(explorer_config_);
  const fuzz::BgpUpdateGrammar grammar(seeds, /*strict=*/true);
  for (std::size_t i = 0; i < options_.grammar_seeds; ++i) {
    engine_->add_seed(grammar.generate_body(rng_, options_.seed_corruption));
  }
}

std::vector<util::Bytes> ConcolicStrategy::next_batch(std::size_t n) {
  if (!engine_) return {};
  // The engine keeps its queue and coverage across run() calls; only this
  // call's execution budget is bounded to the batch size.
  concolic::RunResult result = engine_->run(static_cast<std::uint32_t>(n));
  total_stats_.executions += result.stats.executions;
  total_stats_.unique_paths += result.stats.unique_paths;
  total_stats_.branch_points += result.stats.branch_points;
  total_stats_.generated += result.stats.generated;
  total_stats_.crashes += result.stats.crashes;
  for (concolic::CrashInfo& crash : result.crashes) crashes_.push_back(std::move(crash));
  // The engine's solver stats are cumulative over its episode; publish
  // this batch's share once instead of touching a counter per query.
  static obs::Counter& queries =
      obs::MetricsRegistry::global().counter(obs::names::kSolverQueries);
  static obs::Counter& evaluations =
      obs::MetricsRegistry::global().counter(obs::names::kSolverEvaluations);
  const concolic::SolverStats& solver = result.stats.solver;
  queries.add(solver.queries - published_solver_.queries);
  evaluations.add(solver.evaluations - published_solver_.evaluations);
  published_solver_ = solver;
  std::vector<util::Bytes> batch = std::move(result.corpus);
  if (batch.size() > n) batch.resize(n);
  return batch;
}

// ---------------------------------------------------------------------------
// GrammarStrategy
// ---------------------------------------------------------------------------

GrammarStrategy::GrammarStrategy(double corruption_rate, std::uint64_t rng_seed, bool strict)
    : corruption_rate_(corruption_rate), rng_(rng_seed), strict_(strict) {}

void GrammarStrategy::on_episode(const System& live, sim::NodeId explorer) {
  grammar_ = std::make_unique<fuzz::BgpUpdateGrammar>(
      fuzz::BgpGrammarSeeds::from_config(live.router(explorer).config()), strict_);
}

std::vector<util::Bytes> GrammarStrategy::next_batch(std::size_t n) {
  std::vector<util::Bytes> batch;
  if (!grammar_) return batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(grammar_->generate_body(rng_, corruption_rate_));
  }
  return batch;
}

// ---------------------------------------------------------------------------
// RandomStrategy
// ---------------------------------------------------------------------------

RandomStrategy::RandomStrategy(std::uint64_t rng_seed) : rng_(rng_seed) {}

void RandomStrategy::on_episode(const System&, sim::NodeId) {}

std::vector<util::Bytes> RandomStrategy::next_batch(std::size_t n) {
  std::vector<util::Bytes> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Body sizes drawn from the same ballpark the grammar produces.
    const std::size_t size = 4 + rng_.below(60);
    util::Bytes body(size);
    for (std::uint8_t& b : body) b = rng_.byte();
    batch.push_back(std::move(body));
  }
  return batch;
}

}  // namespace dice::core
