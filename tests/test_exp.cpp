// Tests for the experiment harness (ratio measurement, sweeps).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "algo/overlap.hpp"
#include "algo/strategy.hpp"
#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "exact/certify.hpp"
#include "exp/memaware_experiment.hpp"
#include "exp/ratio_experiment.hpp"
#include "exp/sweep.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance small_instance(std::uint64_t seed = 4) {
  WorkloadParams p;
  p.num_tasks = 10;
  p.num_machines = 3;
  p.alpha = 1.5;
  p.seed = seed;
  return uniform_workload(p, 1.0, 8.0);
}

TEST(RatioExperiment, ExactOptimumOnSmallInstance) {
  const Instance inst = small_instance();
  const RatioTrial trial =
      measure_ratio_trials(make_lpt_no_choice(), inst, NoiseModel::kUniform, 1, 1)
          .front();
  EXPECT_TRUE(trial.exact_optimum);
  EXPECT_GE(trial.ratio, 1.0 - 1e-9);
  EXPECT_GT(trial.optimal_lower_bound, 0.0);
  EXPECT_NEAR(trial.ratio, trial.algorithm_makespan / trial.optimal_lower_bound,
              1e-12);
}

TEST(RatioExperiment, ZeroBudgetUsesAnalyticBound) {
  const Instance inst = small_instance();
  RatioExperimentConfig config;
  config.exact_node_budget = 0;
  const RatioTrial trial = measure_ratio_trials(make_lpt_no_choice(), inst,
                                                NoiseModel::kUniform, 1, 1, config)
                               .front();
  EXPECT_GE(trial.ratio, 1.0 - 1e-9);
}

TEST(RatioExperiment, AdversarialAtLeastStochastic) {
  const Instance inst = small_instance();
  const RatioTrial adv = measure_adversarial_ratio(make_lpt_no_choice(), inst);
  const RatioTrial calm =
      measure_ratio_trials(make_lpt_no_choice(), inst, NoiseModel::kNone, 1, 0).front();
  EXPECT_GE(adv.ratio + 1e-9, calm.ratio);
}

TEST(RatioExperiment, BatchAggregates) {
  const Instance inst = small_instance();
  const RatioAggregate agg = measure_ratio_batch(make_lpt_no_restriction(), inst,
                                                 NoiseModel::kUniform, 8, 42);
  EXPECT_EQ(agg.ratios.count(), 8u);
  EXPECT_EQ(agg.strategy_name, "LPT-NoRestriction");
  EXPECT_EQ(agg.noise_name, "uniform");
  EXPECT_GE(agg.worst.ratio, agg.ratios.mean() - 1e-12);
  EXPECT_DOUBLE_EQ(agg.ratios.max(), agg.worst.ratio);
}

TEST(RatioExperiment, BatchIsDeterministic) {
  const Instance inst = small_instance();
  const RatioAggregate a = measure_ratio_batch(make_ls_group(3), inst,
                                               NoiseModel::kTwoPoint, 5, 7);
  const RatioAggregate b = measure_ratio_batch(make_ls_group(3), inst,
                                               NoiseModel::kTwoPoint, 5, 7);
  EXPECT_DOUBLE_EQ(a.ratios.mean(), b.ratios.mean());
  EXPECT_DOUBLE_EQ(a.worst.ratio, b.worst.ratio);
}

TEST(RatioExperiment, ZeroTrialsThrows) {
  const Instance inst = small_instance();
  EXPECT_THROW((void)measure_ratio_batch(make_lpt_no_restriction(), inst,
                                         NoiseModel::kUniform, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)measure_ratio_trials(make_lpt_no_restriction(), inst,
                                          NoiseModel::kUniform, 0, 1),
               std::invalid_argument);
}

TEST(RatioExperiment, TrialsMatchBatchAggregation) {
  const Instance inst = small_instance();
  CertifyEngine engine;
  RatioExperimentConfig config;
  config.engine = &engine;
  const std::vector<RatioTrial> series = measure_ratio_trials(
      make_lpt_no_restriction(), inst, NoiseModel::kUniform, 6, 42, config);
  ASSERT_EQ(series.size(), 6u);
  const RatioAggregate agg = measure_ratio_batch(
      make_lpt_no_restriction(), inst, NoiseModel::kUniform, 6, 42, config);
  Welford manual;
  for (const RatioTrial& trial : series) manual.add(trial.ratio);
  EXPECT_EQ(agg.ratios.count(), manual.count());
  EXPECT_EQ(agg.ratios.mean(), manual.mean());
  EXPECT_EQ(agg.ratios.m2(), manual.m2());
}

// The determinism contract of the parallel trial loop: for every thread
// count the aggregate is bit-identical (EXPECT_EQ on doubles, not NEAR)
// to the sequential run, because per-trial results are index-addressed
// and Welford runs after the barrier in trial order.
TEST(RatioExperiment, ParallelBatchBitIdenticalAcrossThreadCounts) {
  const Instance inst = small_instance();
  const auto run = [&](std::size_t threads) {
    // Fresh engine per run: the shared-cache bytes then depend only on
    // this batch, not on other tests.
    CertifyEngine engine;
    RatioExperimentConfig config;
    config.engine = &engine;
    ThreadPool pool(threads);
    if (threads > 0) config.pool = &pool;
    return measure_ratio_batch(make_ls_group(3), inst, NoiseModel::kTwoPoint,
                               16, 7, config);
  };
  const RatioAggregate sequential = run(0);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const RatioAggregate parallel = run(threads);
    EXPECT_EQ(parallel.ratios.count(), sequential.ratios.count());
    EXPECT_EQ(parallel.ratios.mean(), sequential.ratios.mean());
    EXPECT_EQ(parallel.ratios.m2(), sequential.ratios.m2());
    EXPECT_EQ(parallel.ratios.min(), sequential.ratios.min());
    EXPECT_EQ(parallel.ratios.max(), sequential.ratios.max());
    EXPECT_EQ(parallel.worst.ratio, sequential.worst.ratio);
    EXPECT_EQ(parallel.worst.algorithm_makespan,
              sequential.worst.algorithm_makespan);
    EXPECT_EQ(parallel.worst.optimal_lower_bound,
              sequential.worst.optimal_lower_bound);
  }
}

TEST(RatioExperiment, SharedEngineCachesAcrossStrategies) {
  // Different strategies replay the same realizations (same noise+seed),
  // so their certification denominators collide in the cache.
  const Instance inst = small_instance();
  CertifyEngine engine;
  RatioExperimentConfig config;
  config.engine = &engine;
  (void)measure_ratio_batch(make_lpt_no_restriction(), inst, NoiseModel::kUniform,
                            8, 42, config);
  const CertifyCacheStats first = engine.cache_stats();
  (void)measure_ratio_batch(make_lpt_no_choice(), inst, NoiseModel::kUniform,
                            8, 42, config);
  const CertifyCacheStats second = engine.cache_stats();
  EXPECT_EQ(second.misses, first.misses);       // all denominators reused
  EXPECT_EQ(second.hits, first.hits + 8);
}

// The multi-strategy call scores every strategy on one shared realization
// set per noise model, certified once, and must equal one call per
// (strategy, noise) bit for bit: with no pool and 1, 2 and 8 threads, on a
// fresh engine and on one that the per-strategy calls already warmed. The
// random-subset placement overlaps, so its trials run the kernel.
TEST(RatioExperiment, MultiStrategyEqualsPerStrategyBatchesBitwise) {
  WorkloadParams params;
  params.num_tasks = 14;
  params.num_machines = 6;
  params.alpha = 1.8;
  params.seed = 12;
  const Instance inst = uniform_workload(params, 1.0, 9.0);
  const std::vector<TwoPhaseStrategy> strategies = {
      make_lpt_no_choice(), make_ls_group(3), make_lpt_no_restriction(),
      make_random_subset(2, 5)};
  const Placement overlapping = strategies[3].place(inst);
  std::size_t set_sizes = 0;
  for (std::uint32_t q = 0; q < overlapping.num_distinct_sets(); ++q) {
    set_sizes += overlapping.distinct_set(q).size();
  }
  ASSERT_GT(set_sizes, std::size_t{inst.num_machines()});
  const std::vector<NoiseModel> noises = {NoiseModel::kUniform, NoiseModel::kTwoPoint};
  constexpr std::size_t kTrials = 5;
  constexpr std::uint64_t kSeed = 31;

  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (const std::size_t threads : {0u, 1u, 2u, 8u}) {
    ThreadPool pool(threads);
    for (const bool shared : {false, true}) {
      const std::string where = std::to_string(threads) + " threads, " +
                                (shared ? "shared" : "fresh") + " engine";
      CertifyEngine reference_engine;
      RatioExperimentConfig config;
      config.engine = &reference_engine;
      if (threads > 0) config.pool = &pool;
      std::vector<std::vector<std::vector<RatioTrial>>> reference(strategies.size());
      std::vector<std::vector<RatioAggregate>> batches(strategies.size());
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        for (const NoiseModel noise : noises) {
          reference[s].push_back(
              measure_ratio_trials(strategies[s], inst, noise, kTrials, kSeed, config));
          batches[s].push_back(
              measure_ratio_batch(strategies[s], inst, noise, kTrials, kSeed, config));
        }
      }

      CertifyEngine fresh_engine;
      if (!shared) config.engine = &fresh_engine;
      obs::MetricsRegistry registry;
      std::vector<std::vector<std::vector<RatioTrial>>> grid;
      {
        obs::ObservabilityScope scope(&registry, nullptr);
        grid = measure_ratio_trials(strategies, inst, noises, kTrials, kSeed, config);
      }
      EXPECT_EQ(registry.counter("exp.ratio.trials").value(),
                strategies.size() * noises.size() * kTrials)
          << where;
      ASSERT_EQ(grid.size(), strategies.size()) << where;
      for (std::size_t s = 0; s < strategies.size(); ++s) {
        ASSERT_EQ(grid[s].size(), noises.size()) << where;
        for (std::size_t k = 0; k < noises.size(); ++k) {
          const std::string cell = where + ", " + strategies[s].name() + ", " +
                                   to_string(noises[k]);
          ASSERT_EQ(grid[s][k].size(), kTrials) << cell;
          for (std::size_t t = 0; t < kTrials; ++t) {
            const RatioTrial& a = grid[s][k][t];
            const RatioTrial& b = reference[s][k][t];
            EXPECT_TRUE(same(a.algorithm_makespan, b.algorithm_makespan) &&
                        same(a.optimal_lower_bound, b.optimal_lower_bound) &&
                        same(a.ratio, b.ratio) && a.exact_optimum == b.exact_optimum)
                << cell << ", trial " << t;
          }
          const RatioAggregate agg =
              aggregate_ratio_trials(strategies[s].name(), noises[k], grid[s][k]);
          const RatioAggregate& batch = batches[s][k];
          EXPECT_EQ(agg.strategy_name, batch.strategy_name) << cell;
          EXPECT_EQ(agg.noise_name, batch.noise_name) << cell;
          EXPECT_EQ(agg.ratios.count(), batch.ratios.count()) << cell;
          EXPECT_TRUE(same(agg.ratios.mean(), batch.ratios.mean())) << cell;
          EXPECT_TRUE(same(agg.ratios.m2(), batch.ratios.m2())) << cell;
          EXPECT_TRUE(same(agg.ratios.min(), batch.ratios.min())) << cell;
          EXPECT_TRUE(same(agg.ratios.max(), batch.ratios.max())) << cell;
          EXPECT_TRUE(same(agg.worst.ratio, batch.worst.ratio)) << cell;
          EXPECT_TRUE(same(agg.worst.optimal_lower_bound,
                           batch.worst.optimal_lower_bound))
              << cell;
          EXPECT_EQ(agg.worst.exact_optimum, batch.worst.exact_optimum) << cell;
        }
      }
    }
  }
}

TEST(RatioExperiment, MultiStrategyCertifiesEachNoiseOnce) {
  // One batch per noise model: the fresh engine solves each distinct
  // realization once and serves no other strategy from its cache.
  const Instance inst = small_instance();
  const std::vector<TwoPhaseStrategy> strategies = {make_lpt_no_choice(),
                                                    make_lpt_no_restriction()};
  const std::vector<NoiseModel> noises = {NoiseModel::kUniform, NoiseModel::kTwoPoint};
  CertifyEngine engine;
  RatioExperimentConfig config;
  config.engine = &engine;
  (void)measure_ratio_trials(strategies, inst, noises, 4, 42, config);
  const CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, noises.size() * 4);
  EXPECT_THROW((void)measure_ratio_trials(strategies, inst, noises, 0, 1, config),
               std::invalid_argument);
}

TEST(MemAwareExperiment, TrialFieldsConsistent) {
  const Instance inst = small_instance(9);
  const Realization actual = realize(inst, NoiseModel::kUniform, 2);
  const MemAwareTrial trial = measure_sabo(inst, actual, 1.0);
  EXPECT_GT(trial.makespan, 0.0);
  EXPECT_GT(trial.memory, 0.0);
  EXPECT_NEAR(trial.makespan_ratio, trial.makespan / trial.cmax_lower_bound, 1e-12);
  EXPECT_GT(trial.makespan_guarantee, 1.0);
  EXPECT_GT(trial.memory_guarantee, 1.0);
}

TEST(Sweep, GridShapeAndIndexing) {
  const auto grid = make_grid({2, 4}, {1.1, 1.5, 2.0}, {1, 2});
  ASSERT_EQ(grid.size(), 12u);
  for (std::size_t i = 0; i < grid.size(); ++i) EXPECT_EQ(grid[i].index, i);
  EXPECT_EQ(grid[0].m, 2u);
  EXPECT_DOUBLE_EQ(grid[0].alpha, 1.1);
  EXPECT_EQ(grid.back().m, 4u);
  EXPECT_DOUBLE_EQ(grid.back().alpha, 2.0);
  EXPECT_EQ(grid.back().seed, 2u);
}

TEST(Sweep, SequentialVisitsAll) {
  // A one-thread pool visits every cell once, in grid order.
  const auto grid = make_grid({2}, {1.5}, {1, 2, 3});
  std::vector<std::size_t> visited;
  ThreadPool pool(1);
  run_sweep_parallel(pool, grid, [&](const SweepCell& c) { visited.push_back(c.index); });
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Sweep, ParallelMatchesSequential) {
  const auto grid = make_grid({2, 3, 4}, {1.2, 1.8}, {1, 2, 3});
  std::vector<double> seq(grid.size(), 0), par(grid.size(), 0);
  const auto body = [](const SweepCell& c) {
    return static_cast<double>(c.m) * c.alpha + static_cast<double>(c.seed);
  };
  for (const SweepCell& c : grid) seq[c.index] = body(c);
  ThreadPool pool(4);
  run_sweep_parallel(pool, grid, [&](const SweepCell& c) { par[c.index] = body(c); });
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace rdp
