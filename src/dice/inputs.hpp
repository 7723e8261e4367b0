// Input-subjection strategies (paper §2 step ii: "subjecting system nodes
// to many possible inputs that exercise node actions").
//
// DiCE's primary generator is concolic execution over the explorer's
// instrumented UPDATE handler (ConcolicStrategy, wrapping concolic::
// ConcolicEngine around bgp::sym_handle_update). Grammar-based fuzzing
// complements it with volume (GrammarStrategy; paper insight iii), and
// RandomStrategy is the blackbox baseline the evaluation compares against.
//
// Every strategy emits UPDATE message *bodies*; the orchestrator wraps
// them into wire messages before injecting them into clones.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bgp/sym_update.hpp"
#include "concolic/engine.hpp"
#include "dice/system.hpp"
#include "fuzz/bgp_grammar.hpp"
#include "fuzz/mutator.hpp"

namespace dice::core {

class InputStrategy {
 public:
  virtual ~InputStrategy() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Called at the start of each episode with the live system and the
  /// chosen explorer, so strategies can re-target current state/config.
  virtual void on_episode(const System& live, sim::NodeId explorer) = 0;

  /// Produces up to n UPDATE bodies for this episode.
  [[nodiscard]] virtual std::vector<util::Bytes> next_batch(std::size_t n) = 0;
};

/// Concolic exploration of the explorer's instrumented handler.
class ConcolicStrategy final : public InputStrategy {
 public:
  struct Options {
    concolic::EngineOptions engine;
    std::size_t grammar_seeds = 6;     ///< fresh seeds per episode
    double seed_corruption = 0.02;
    std::uint64_t rng_seed = 0xc0c0;
    /// Optional shared solver memo (explore::SolverCache). The engine is
    /// rebuilt every episode, but memoized constraint solutions survive —
    /// identical negations are never re-solved across episodes or clones.
    concolic::SolverMemo* solver_memo = nullptr;
  };

  ConcolicStrategy();
  explicit ConcolicStrategy(Options options);
  ~ConcolicStrategy() override;

  [[nodiscard]] std::string_view name() const noexcept override { return "concolic"; }
  void on_episode(const System& live, sim::NodeId explorer) override;
  [[nodiscard]] std::vector<util::Bytes> next_batch(std::size_t n) override;

  /// Aggregated engine statistics across all episodes so far.
  [[nodiscard]] const concolic::EngineStats& stats() const noexcept { return total_stats_; }
  /// Crashing inputs the engine found during generation (already known
  /// programming errors before any clone runs).
  [[nodiscard]] const std::vector<concolic::CrashInfo>& crashes() const noexcept {
    return crashes_;
  }

 private:
  Options options_;
  util::Rng rng_;
  bgp::RouterConfig explorer_config_;  ///< stable storage for the env
  bgp::SymHandlerEnv env_;
  std::unique_ptr<concolic::ConcolicEngine> engine_;
  concolic::EngineStats total_stats_;
  concolic::SolverStats published_solver_;  ///< this episode's engine, as last published
  std::vector<concolic::CrashInfo> crashes_;
};

/// Grammar-based fuzzing seeded from the explorer's configuration.
/// `strict` restricts the grammar to protocol-valid productions (the
/// honest blackbox baseline: no pre-baked invalid shapes).
class GrammarStrategy final : public InputStrategy {
 public:
  explicit GrammarStrategy(double corruption_rate = 0.05,
                           std::uint64_t rng_seed = 0x96a3, bool strict = false);

  [[nodiscard]] std::string_view name() const noexcept override { return "grammar"; }
  void on_episode(const System& live, sim::NodeId explorer) override;
  [[nodiscard]] std::vector<util::Bytes> next_batch(std::size_t n) override;

 private:
  double corruption_rate_;
  util::Rng rng_;
  bool strict_;
  std::unique_ptr<fuzz::BgpUpdateGrammar> grammar_;
};

/// Blackbox baseline: random bytes with UPDATE-body-plausible lengths.
class RandomStrategy final : public InputStrategy {
 public:
  explicit RandomStrategy(std::uint64_t rng_seed = 0x7a11);

  [[nodiscard]] std::string_view name() const noexcept override { return "random"; }
  void on_episode(const System& live, sim::NodeId explorer) override;
  [[nodiscard]] std::vector<util::Bytes> next_batch(std::size_t n) override;

 private:
  util::Rng rng_;
};

}  // namespace dice::core
