// Scenario-based robustness evaluation -- the methodology most robust-
// scheduling work the paper cites uses (Daniels & Kouvelis, Davenport et
// al.): fix a *set* of realizations (scenarios) and judge a placement by
// its worst-case / average / regret behaviour across them, instead of a
// single adversary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "algo/strategy.hpp"
#include "core/realization.hpp"
#include "core/types.hpp"

namespace rdp {

class CertifyEngine;
class Instance;
class ThreadPool;

/// A named bundle of realizations of one instance.
struct ScenarioSet {
  std::vector<Realization> scenarios;

  [[nodiscard]] std::size_t size() const noexcept { return scenarios.size(); }
};

/// Mixed scenario set covering several noise models round-robin: `count`
/// draws (seeds seed, seed+1, ...), each respecting the instance's alpha
/// band.
[[nodiscard]] ScenarioSet make_mixed_scenarios(const Instance& instance,
                                               std::size_t count, std::uint64_t seed);

/// Drifting-alpha scenario set: scenario s is drawn from a band whose
/// width interpolates geometrically from `alpha_from` (scenario 0) to
/// `alpha_to` (last scenario), log-uniform factors. The instance's
/// declared alpha is deliberately ignored -- this models an environment
/// whose uncertainty changes under a strategy calibrated once, the
/// regime the adaptive estimator (src/adapt/) is built for. Realized
/// factors may leave the declared band. Both endpoints must be >= 1.
[[nodiscard]] ScenarioSet make_drifting_scenarios(const Instance& instance,
                                                  std::size_t count,
                                                  std::uint64_t seed,
                                                  double alpha_from,
                                                  double alpha_to);

/// Misreported-alpha scenario set: every scenario is drawn at
/// `true_alpha` (mixed noise models round-robin) regardless of the
/// instance's declared alpha -- the declared band is simply wrong, and a
/// strategy trusting it picks its replication degree from a lie.
/// `true_alpha` must be >= 1.
[[nodiscard]] ScenarioSet make_misreported_scenarios(const Instance& instance,
                                                     std::size_t count,
                                                     std::uint64_t seed,
                                                     double true_alpha);

/// Per-strategy evaluation across a scenario set.
struct ScenarioEvaluation {
  std::string strategy_name;
  std::vector<Time> makespans;      ///< one per scenario
  std::vector<Time> optima;         ///< certified LB on OPT per scenario
  Time worst_makespan = 0;
  double mean_makespan = 0;
  double worst_regret = 0;          ///< max_s (Cmax_s - OPT_s)
  double worst_ratio = 0;           ///< max_s (Cmax_s / OPT_s)
  double cvar90_makespan = 0;       ///< mean of the worst 10% makespans
};

struct ScenarioConfig {
  std::uint64_t exact_node_budget = 200'000;
  /// Certification engine (cache + batch solver); nullptr uses the
  /// process-default engine.
  CertifyEngine* engine = nullptr;
  /// When non-null, per-scenario dispatch and certification run on this
  /// pool; aggregates are bit-identical to the sequential path.
  ThreadPool* pool = nullptr;
};

/// Places once (phase 1 is scenario-independent by construction), then
/// dispatches per scenario and aggregates. Dispatch and certification are
/// batched through the certify engine; aggregation walks scenarios in
/// order after the batch, so results match a sequential run bitwise.
[[nodiscard]] ScenarioEvaluation evaluate_scenarios(const TwoPhaseStrategy& strategy,
                                                    const Instance& instance,
                                                    const ScenarioSet& scenarios,
                                                    const ScenarioConfig& config = {});

/// Picks the strategy minimizing worst-case makespan across scenarios
/// (min-max robust selection), breaking ties by worst regret. Returns
/// the index into `strategies`.
[[nodiscard]] std::size_t select_min_max(const std::vector<TwoPhaseStrategy>& strategies,
                                         const Instance& instance,
                                         const ScenarioSet& scenarios,
                                         const ScenarioConfig& config = {});

}  // namespace rdp
