// Competitive-ratio measurement: run a two-phase strategy against a
// realization, then divide its makespan by a *certified* lower bound on
// the offline optimum (exact when branch-and-bound proves it). Because
// the denominator never exceeds OPT, measured ratios over-estimate the
// true competitive ratio, keeping "measured <= theorem bound" checks
// sound.
//
// Certification is the dominant cost, so every entry point routes through
// a CertifyEngine (exact/certify.hpp): denominators are canonicalized,
// memo-cached, and -- for batches -- solved in parallel on an optional
// ThreadPool. Batch aggregation happens after the parallel barrier in
// trial order, so results are bit-identical across thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algo/strategy.hpp"
#include "core/types.hpp"
#include "perturb/stochastic.hpp"
#include "stats/welford.hpp"

namespace rdp {

class CertifyEngine;
class Instance;
class ThreadPool;

struct RatioExperimentConfig {
  /// Branch-and-bound node budget for the optimum (0 = analytic LB only).
  std::uint64_t exact_node_budget = 2'000'000;
  /// Certification engine (cache + batch solver); nullptr uses the
  /// process-default engine.
  CertifyEngine* engine = nullptr;
  /// When non-null, batch trial loops (dispatch + certification) run on
  /// this pool; results are bit-identical to the sequential path.
  ThreadPool* pool = nullptr;
};

struct RatioTrial {
  Time algorithm_makespan = 0;
  Time optimal_lower_bound = 0;  ///< certified LB on OPT (== OPT when exact)
  bool exact_optimum = false;
  double ratio = 0;              ///< algorithm_makespan / optimal_lower_bound
};

/// The strategy against the placement-aware adversary (the worst case the
/// paper's proofs construct).
[[nodiscard]] RatioTrial measure_adversarial_ratio(
    const TwoPhaseStrategy& strategy, const Instance& instance,
    const RatioExperimentConfig& config = {});

/// `trials` independent stochastic realizations (seeds seed, seed+1, ...),
/// one RatioTrial per realization in trial order. Phase 1 runs once (it is
/// realization-independent); dispatch and certification are batched and,
/// with `config.pool`, parallel. Throws std::invalid_argument when
/// `trials == 0`.
[[nodiscard]] std::vector<RatioTrial> measure_ratio_trials(
    const TwoPhaseStrategy& strategy, const Instance& instance, NoiseModel noise,
    std::size_t trials, std::uint64_t seed,
    const RatioExperimentConfig& config = {});

/// measure_ratio_trials for several strategies and noise models on one
/// shared realization set: result[s][k] is strategies[s] under noises[k],
/// bit-identical to measure_ratio_trials(strategies[s], ..., noises[k],
/// ...). Each strategy places and prioritises once. For each noise model
/// in order, the realizations are drawn once and certified in one batch
/// (the batch a single strategy would send), and every (strategy, trial)
/// pair is dispatched schedule-only, on `config.pool` when set. Throws
/// std::invalid_argument when `trials == 0`.
[[nodiscard]] std::vector<std::vector<std::vector<RatioTrial>>> measure_ratio_trials(
    std::span<const TwoPhaseStrategy> strategies, const Instance& instance,
    std::span<const NoiseModel> noises, std::size_t trials, std::uint64_t seed,
    const RatioExperimentConfig& config = {});

struct RatioAggregate {
  std::string strategy_name;
  std::string noise_name;
  Welford ratios;
  RatioTrial worst;  ///< the trial with the largest ratio
};

/// Aggregates one series in trial order: the Welford stream, and the
/// first trial with the largest ratio as `worst`.
[[nodiscard]] RatioAggregate aggregate_ratio_trials(std::string strategy_name,
                                                    NoiseModel noise,
                                                    std::span<const RatioTrial> series);

/// Aggregate over measure_ratio_trials; the Welford stream is fed in
/// trial order after the (possibly parallel) batch completes, so the
/// aggregate is bit-identical to a sequential run. Throws
/// std::invalid_argument when `trials == 0`.
[[nodiscard]] RatioAggregate measure_ratio_batch(const TwoPhaseStrategy& strategy,
                                                 const Instance& instance,
                                                 NoiseModel noise, std::size_t trials,
                                                 std::uint64_t seed,
                                                 const RatioExperimentConfig& config = {});

}  // namespace rdp
