#include "exp/ratio_experiment.hpp"

#include <functional>
#include <stdexcept>
#include <utility>

#include "algo/dispatch_policies.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exact/certify.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/adversary.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

CertifyEngine& engine_for(const RatioExperimentConfig& config) {
  return config.engine != nullptr ? *config.engine : default_certify_engine();
}

RatioTrial make_trial(Time algo_makespan, const CertifiedCmax& opt) {
  RatioTrial trial;
  trial.algorithm_makespan = algo_makespan;
  trial.optimal_lower_bound = opt.lower;
  trial.exact_optimum = opt.exact;
  if (opt.lower <= 0) {
    throw std::logic_error("ratio experiment: degenerate optimum");
  }
  trial.ratio = algo_makespan / opt.lower;
  return trial;
}

/// Debug-only schedule re-validation (the --debug-checks flag /
/// RDP_DEBUG_CHECKS=1): throws std::logic_error with every broken
/// invariant when a dispatcher produced an inconsistent schedule. Costs
/// one relaxed atomic load when disabled.
void debug_validate(const Instance& instance, const Placement& placement,
                    const Realization& actual, const Schedule& schedule,
                    const char* context) {
  if (!check::debug_checks_enabled()) return;
  check::throw_on_violations(
      check::check_invariants(instance, placement, actual, schedule), context);
}

RatioTrial finish_trial(Time algo_makespan, const Realization& actual,
                        const Instance& instance,
                        const RatioExperimentConfig& config) {
  obs::MetricsRegistry* const mx = obs::metrics();
  if (mx) mx->counter("exp.ratio.trials").add(1);
  CertifyOptions options;
  options.node_budget = config.exact_node_budget;
  CertifiedCmax opt;
  {
    obs::ScopedTimer opt_timer(mx ? &mx->histogram("exp.ratio.certify_seconds")
                                  : nullptr);
    opt = engine_for(config).certify(actual.actual, instance.num_machines(),
                                     options);
  }
  return make_trial(algo_makespan, opt);
}

}  // namespace

RatioTrial measure_adversarial_ratio(const TwoPhaseStrategy& strategy,
                                     const Instance& instance,
                                     const RatioExperimentConfig& config) {
  const Placement placement = strategy.place(instance);
  const Realization actual = adversarial_realization(instance, placement);
  const DispatchResult dispatched =
      dispatch_with_rule(instance, placement, actual, strategy.rule());
  debug_validate(instance, placement, actual, dispatched.schedule,
                 "measure_adversarial_ratio");
  return finish_trial(dispatched.schedule.makespan(), actual, instance, config);
}

std::vector<std::vector<std::vector<RatioTrial>>> measure_ratio_trials(
    std::span<const TwoPhaseStrategy> strategies, const Instance& instance,
    std::span<const NoiseModel> noises, std::size_t trials, std::uint64_t seed,
    const RatioExperimentConfig& config) {
  if (trials == 0) {
    throw std::invalid_argument("measure_ratio_trials: trials must be >= 1");
  }
  obs::ScopedSpan span(obs::tracer(), "measure_ratio_trials", "exp");
  const std::size_t num_strategies = strategies.size();
  std::vector<std::vector<std::vector<RatioTrial>>> out(
      num_strategies, std::vector<std::vector<RatioTrial>>(noises.size()));
  if (num_strategies == 0) return out;

  // Phase 1 is deterministic: each strategy places once and builds its
  // priority permutation (a function of the instance alone) once, then
  // re-dispatches per realization.
  std::vector<Placement> placements;
  std::vector<std::vector<TaskId>> priorities;
  placements.reserve(num_strategies);
  priorities.reserve(num_strategies);
  for (const TwoPhaseStrategy& strategy : strategies) {
    placements.push_back(strategy.place(instance));
    priorities.push_back(make_priority(instance, strategy.rule()));
  }

  const auto fan_out = [&](std::size_t count,
                           const std::function<void(std::size_t)>& body) {
    if (config.pool != nullptr && count > 1) {
      parallel_for_each_index(*config.pool, count, body);
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  };
  obs::MetricsRegistry* const mx = obs::metrics();
  CertifyOptions options;
  options.node_budget = config.exact_node_budget;
  options.pool = config.pool;
  // Slots are index-addressed, so the parallel path writes the same bytes
  // the sequential path would. Only one noise model's realizations are
  // alive at a time.
  std::vector<Realization> actuals(trials);
  std::vector<CertifyRequest> requests(trials);
  std::vector<Time> makespans(num_strategies * trials);
  for (std::size_t k = 0; k < noises.size(); ++k) {
    fan_out(trials, [&](std::size_t t) {
      actuals[t] = realize(instance, noises[k], seed + t);
    });
    // Every (strategy, trial) pair, schedule only: no caller reads the
    // trace. Each worker thread reuses one workspace and schedule, so
    // steady-state trials allocate nothing in the dispatcher.
    fan_out(num_strategies * trials, [&](std::size_t c) {
      const std::size_t s = c / trials;
      const std::size_t t = c % trials;
      thread_local Schedule schedule;
      dispatch_online_schedule(instance, placements[s], actuals[t], priorities[s], {},
                               {}, thread_workspace(), schedule);
      debug_validate(instance, placements[s], actuals[t], schedule,
                     "measure_ratio_trials");
      makespans[c] = schedule.makespan();
    });
    if (mx) mx->counter("exp.ratio.trials").add(num_strategies * trials);

    // One certification batch per noise model, shared by every strategy.
    // It holds exactly the requests one strategy's batch would, so its
    // warm-start seeds and results do not depend on how many strategies
    // share it.
    for (std::size_t t = 0; t < trials; ++t) {
      requests[t] = CertifyRequest{actuals[t].actual, instance.num_machines()};
    }
    std::vector<CertifiedCmax> optima;
    {
      obs::ScopedTimer certify_timer(
          mx ? &mx->histogram("exp.ratio.certify_seconds") : nullptr);
      optima = engine_for(config).certify_batch(requests, options);
    }
    for (std::size_t s = 0; s < num_strategies; ++s) {
      std::vector<RatioTrial>& series = out[s][k];
      series.resize(trials);
      for (std::size_t t = 0; t < trials; ++t) {
        series[t] = make_trial(makespans[s * trials + t], optima[t]);
      }
    }
  }
  return out;
}

std::vector<RatioTrial> measure_ratio_trials(const TwoPhaseStrategy& strategy,
                                             const Instance& instance,
                                             NoiseModel noise, std::size_t trials,
                                             std::uint64_t seed,
                                             const RatioExperimentConfig& config) {
  return std::move(measure_ratio_trials({&strategy, 1}, instance, {&noise, 1}, trials,
                                        seed, config)[0][0]);
}

RatioAggregate aggregate_ratio_trials(std::string strategy_name, NoiseModel noise,
                                      std::span<const RatioTrial> series) {
  RatioAggregate agg;
  agg.strategy_name = std::move(strategy_name);
  agg.noise_name = to_string(noise);
  for (const RatioTrial& trial : series) {
    agg.ratios.add(trial.ratio);
    if (trial.ratio > agg.worst.ratio) agg.worst = trial;
  }
  return agg;
}

RatioAggregate measure_ratio_batch(const TwoPhaseStrategy& strategy,
                                   const Instance& instance, NoiseModel noise,
                                   std::size_t trials, std::uint64_t seed,
                                   const RatioExperimentConfig& config) {
  if (trials == 0) {
    throw std::invalid_argument("measure_ratio_batch: trials must be >= 1");
  }
  obs::ScopedSpan span(obs::tracer(), "measure_ratio_batch", "exp");
  return aggregate_ratio_trials(
      strategy.name(), noise,
      measure_ratio_trials(strategy, instance, noise, trials, seed, config));
}

}  // namespace rdp
