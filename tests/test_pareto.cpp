// Tests for the empirical memory-makespan Pareto front.
#include <gtest/gtest.h>

#include <vector>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "memaware/pareto.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

TEST(Pareto, DominanceDefinition) {
  const ParetoPoint a{1.0, "A", 5.0, 10.0};
  const ParetoPoint b{1.0, "B", 6.0, 12.0};
  const ParetoPoint c{1.0, "C", 5.0, 10.0};
  const ParetoPoint d{1.0, "D", 4.0, 15.0};
  EXPECT_TRUE(dominates(a, b));
  EXPECT_FALSE(dominates(b, a));
  EXPECT_FALSE(dominates(a, c));  // equal points do not dominate
  EXPECT_FALSE(dominates(a, d));  // trade-off: incomparable
  EXPECT_FALSE(dominates(d, a));
}

TEST(Pareto, FilterKeepsOnlyNonDominated) {
  std::vector<ParetoPoint> pts = {
      {0.1, "A", 5.0, 10.0}, {0.2, "A", 6.0, 12.0},  // dominated by first
      {0.3, "B", 4.0, 15.0}, {0.4, "B", 7.0, 8.0},
  };
  const auto front = pareto_filter(pts);
  ASSERT_EQ(front.size(), 3u);
  // Sorted by makespan.
  EXPECT_DOUBLE_EQ(front[0].makespan, 4.0);
  EXPECT_DOUBLE_EQ(front[1].makespan, 5.0);
  EXPECT_DOUBLE_EQ(front[2].makespan, 7.0);
}

TEST(Pareto, FilterDeduplicatesEqualPoints) {
  std::vector<ParetoPoint> pts = {{0.1, "A", 5.0, 10.0}, {0.2, "B", 5.0, 10.0}};
  EXPECT_EQ(pareto_filter(pts).size(), 1u);
}

TEST(Pareto, SweepParameterValidation) {
  WorkloadParams params;
  params.num_tasks = 8;
  params.num_machines = 2;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = exact_realization(inst);
  EXPECT_THROW((void)measure_tradeoff_sweep(inst, actual, 0.0, 1.0, 5),
               std::invalid_argument);
  EXPECT_THROW((void)measure_tradeoff_sweep(inst, actual, 2.0, 1.0, 5),
               std::invalid_argument);
  EXPECT_THROW((void)measure_tradeoff_sweep(inst, actual, 0.1, 1.0, 1),
               std::invalid_argument);
}

TEST(Pareto, MeasuredFrontIsMonotone) {
  WorkloadParams params;
  params.num_tasks = 20;
  params.num_machines = 4;
  params.alpha = 1.5;
  params.seed = 8;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, 9);

  const auto front = pareto_filter(measure_tradeoff_sweep(inst, actual, 0.05, 20.0, 17));
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    // Along a Pareto front sorted by makespan, memory strictly decreases.
    EXPECT_GT(front[i].makespan, front[i - 1].makespan);
    EXPECT_LT(front[i].memory, front[i - 1].memory);
  }
}

TEST(Pareto, FrontContainsBothAlgorithmsOnTradeoffWorkloads) {
  // ABO owns the low-makespan/high-memory end (replication), SABO the
  // low-memory end; on an independent-sizes workload both should appear.
  WorkloadParams params;
  params.num_tasks = 24;
  params.num_machines = 4;
  params.alpha = 2.0;
  params.seed = 15;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 16);
  const auto front = pareto_filter(measure_tradeoff_sweep(inst, actual, 0.05, 20.0, 17));
  bool has_sabo = false, has_abo = false;
  for (const ParetoPoint& pt : front) {
    has_sabo |= pt.algorithm == "SABO";
    has_abo |= pt.algorithm == "ABO";
  }
  EXPECT_TRUE(has_sabo);
  EXPECT_TRUE(has_abo);
}

}  // namespace
}  // namespace rdp
