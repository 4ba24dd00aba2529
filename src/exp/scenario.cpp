#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "algo/dispatch_policies.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "exact/certify.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/stochastic.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"

namespace rdp {

ScenarioSet make_mixed_scenarios(const Instance& instance, std::size_t count,
                                 std::uint64_t seed) {
  static const NoiseModel kMix[] = {NoiseModel::kUniform, NoiseModel::kTwoPoint,
                                    NoiseModel::kLogUniform, NoiseModel::kAlwaysHigh,
                                    NoiseModel::kBetaCentered};
  ScenarioSet set;
  set.scenarios.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    set.scenarios.push_back(
        realize(instance, kMix[s % std::size(kMix)], seed + s));
  }
  return set;
}

namespace {

/// The instance re-declared at a different alpha (tasks and machines
/// unchanged) so realize() draws from the requested band.
Instance with_alpha(const Instance& instance, double alpha) {
  std::vector<Task> tasks(instance.tasks().begin(), instance.tasks().end());
  return Instance(std::move(tasks), instance.num_machines(), alpha);
}

}  // namespace

ScenarioSet make_drifting_scenarios(const Instance& instance, std::size_t count,
                                    std::uint64_t seed, double alpha_from,
                                    double alpha_to) {
  if (!(alpha_from >= 1.0) || !(alpha_to >= 1.0)) {
    throw std::invalid_argument(
        "make_drifting_scenarios: alpha endpoints must be >= 1");
  }
  ScenarioSet set;
  set.scenarios.reserve(count);
  const double log_from = std::log(alpha_from);
  const double log_to = std::log(alpha_to);
  for (std::size_t s = 0; s < count; ++s) {
    const double t =
        count > 1 ? static_cast<double>(s) / static_cast<double>(count - 1) : 0.0;
    const double alpha_s = std::exp(log_from + (log_to - log_from) * t);
    set.scenarios.push_back(
        realize(with_alpha(instance, alpha_s), NoiseModel::kLogUniform, seed + s));
  }
  return set;
}

ScenarioSet make_misreported_scenarios(const Instance& instance, std::size_t count,
                                       std::uint64_t seed, double true_alpha) {
  if (!(true_alpha >= 1.0)) {
    throw std::invalid_argument(
        "make_misreported_scenarios: true_alpha must be >= 1");
  }
  return make_mixed_scenarios(with_alpha(instance, true_alpha), count, seed);
}

ScenarioEvaluation evaluate_scenarios(const TwoPhaseStrategy& strategy,
                                      const Instance& instance,
                                      const ScenarioSet& scenarios,
                                      const ScenarioConfig& config) {
  if (scenarios.size() == 0) {
    throw std::invalid_argument("evaluate_scenarios: empty scenario set");
  }
  ScenarioEvaluation eval;
  eval.strategy_name = strategy.name();
  const Placement placement = strategy.place(instance);
  const std::size_t count = scenarios.size();
  // One priority sort for the whole set; the rule only reads estimates.
  const std::vector<TaskId> priority = make_priority(instance, strategy.rule());

  // Dispatch into index-addressed slots (parallel-safe), then certify the
  // whole set in one batch so identical realizations share a solve. Each
  // worker thread reuses its workspace + result pair, so steady-state
  // scenarios allocate nothing in the dispatcher.
  eval.makespans.resize(count);
  const auto run_scenario = [&](std::size_t s) {
    thread_local DispatchResult run;
    dispatch_online(instance, placement, scenarios.scenarios[s], priority, {},
                    {}, thread_workspace(), run);
    if (check::debug_checks_enabled()) {
      check::throw_on_violations(
          check::check_invariants(instance, placement, scenarios.scenarios[s],
                                  run.schedule),
          "evaluate_scenarios");
    }
    eval.makespans[s] = run.schedule.makespan();
  };
  if (config.pool != nullptr && count > 1) {
    parallel_for_each_index(*config.pool, count, run_scenario);
  } else {
    for (std::size_t s = 0; s < count; ++s) run_scenario(s);
  }

  std::vector<CertifyRequest> requests(count);
  for (std::size_t s = 0; s < count; ++s) {
    requests[s] =
        CertifyRequest{scenarios.scenarios[s].actual, instance.num_machines()};
  }
  CertifyOptions copts;
  copts.node_budget = config.exact_node_budget;
  copts.pool = config.pool;
  CertifyEngine& engine =
      config.engine != nullptr ? *config.engine : default_certify_engine();
  const std::vector<CertifiedCmax> optima = engine.certify_batch(requests, copts);

  // Aggregate in scenario order after the batch barrier, so the numbers
  // are bit-identical across thread counts.
  double total = 0;
  eval.optima.resize(count);
  for (std::size_t s = 0; s < count; ++s) {
    const Time cmax = eval.makespans[s];
    eval.optima[s] = optima[s].lower;
    total += cmax;
    eval.worst_makespan = std::max(eval.worst_makespan, cmax);
    if (optima[s].lower > 0) {
      eval.worst_regret = std::max(eval.worst_regret, cmax - optima[s].lower);
      eval.worst_ratio = std::max(eval.worst_ratio, cmax / optima[s].lower);
    }
  }
  eval.mean_makespan = total / static_cast<double>(scenarios.size());

  // CVaR at 90%: mean of the worst 10% of makespans (at least one).
  std::vector<Time> sorted = eval.makespans;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const std::size_t tail =
      std::max<std::size_t>(1, sorted.size() / 10);
  double tail_sum = 0;
  for (std::size_t i = 0; i < tail; ++i) tail_sum += sorted[i];
  eval.cvar90_makespan = tail_sum / static_cast<double>(tail);
  return eval;
}

std::size_t select_min_max(const std::vector<TwoPhaseStrategy>& strategies,
                           const Instance& instance, const ScenarioSet& scenarios,
                           const ScenarioConfig& config) {
  if (strategies.empty()) {
    throw std::invalid_argument("select_min_max: no strategies");
  }
  // Lexicographic (worst makespan, worst regret): systematic noise (e.g.
  // every task slower by the same factor) often ties strategies on the
  // worst scenario; regret against the per-scenario optimum separates
  // them.
  std::size_t best = 0;
  Time best_worst = std::numeric_limits<Time>::infinity();
  double best_regret = std::numeric_limits<double>::infinity();
  constexpr double kTieTolerance = 1e-9;
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const ScenarioEvaluation eval =
        evaluate_scenarios(strategies[s], instance, scenarios, config);
    const bool strictly_better = eval.worst_makespan < best_worst - kTieTolerance;
    const bool tie_break = eval.worst_makespan <= best_worst + kTieTolerance &&
                           eval.worst_regret < best_regret - kTieTolerance;
    if (strictly_better || tie_break) {
      best_worst = std::min(best_worst, eval.worst_makespan);
      best_regret = eval.worst_regret;
      best = s;
    }
  }
  return best;
}

}  // namespace rdp
