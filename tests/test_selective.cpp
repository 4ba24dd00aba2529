// Tests for the selective-replication policies (paper future work:
// per-task replication cost, replicate only critical tasks).
#include <gtest/gtest.h>

#include <algorithm>

#include "algo/selective.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "exp/ratio_experiment.hpp"
#include "perturb/adversary.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance demo(MachineId m = 4, double alpha = 2.0, std::uint64_t seed = 6) {
  WorkloadParams params;
  params.num_tasks = 20;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = seed;
  return uniform_workload(params, 1.0, 10.0);
}

TEST(CriticalTasks, FractionZeroIsPurePinning) {
  const Instance inst = demo();
  const Placement p = CriticalTasksPlacement(0.0).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 1u);
  EXPECT_EQ(check_placement(inst, p), "");
}

TEST(CriticalTasks, FractionOneReplicatesEverything) {
  const Instance inst = demo();
  const Placement p = CriticalTasksPlacement(1.0).place(inst);
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    EXPECT_EQ(p.replication_degree(j), 4u);
  }
}

TEST(CriticalTasks, LargestTasksAreTheCriticalOnes) {
  const Instance inst = demo();
  const Placement p = CriticalTasksPlacement(0.25).place(inst);  // 5 of 20
  // Exactly ceil(0.25*20) = 5 tasks replicated everywhere.
  std::size_t replicated = 0;
  double smallest_replicated = 1e300;
  double largest_pinned = 0;
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    if (p.replication_degree(j) == 4u) {
      ++replicated;
      smallest_replicated = std::min(smallest_replicated, inst.estimate(j));
    } else {
      EXPECT_EQ(p.replication_degree(j), 1u);
      largest_pinned = std::max(largest_pinned, inst.estimate(j));
    }
  }
  EXPECT_EQ(replicated, 5u);
  EXPECT_GE(smallest_replicated, largest_pinned);
}

TEST(CriticalTasks, RejectsBadFraction) {
  EXPECT_THROW(CriticalTasksPlacement(-0.1), std::invalid_argument);
  EXPECT_THROW(CriticalTasksPlacement(1.1), std::invalid_argument);
}

TEST(CriticalTasks, StrategyRunsFeasibly) {
  const Instance inst = demo();
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 9);
  const StrategyResult r = make_critical_tasks(0.3).run(inst, actual);
  EXPECT_TRUE(check::check_invariants(inst, r.placement, actual, r.schedule).empty());
  EXPECT_EQ(check_schedule(inst, actual, r.schedule, true), "");
}

TEST(CriticalTasks, ReplicatingCriticalsBeatsPurePinningUnderAdversary) {
  const Instance inst = demo();
  RatioExperimentConfig config;
  config.exact_node_budget = 500'000;
  const RatioTrial pinned =
      measure_adversarial_ratio(make_critical_tasks(0.0), inst, config);
  const RatioTrial partial =
      measure_adversarial_ratio(make_critical_tasks(0.3), inst, config);
  EXPECT_LE(partial.ratio, pinned.ratio + 1e-9);
}

TEST(MemoryBudget, ZeroBudgetPinsEverything) {
  const Instance inst = demo();
  const Placement p = MemoryBudgetPlacement(0.0).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 1u);
}

TEST(MemoryBudget, HugeBudgetReplicatesEverything) {
  const Instance inst = demo();
  const Placement p = MemoryBudgetPlacement(1e9).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 4u);
  EXPECT_EQ(p.total_replicas(), inst.num_tasks() * 4u);
}

TEST(MemoryBudget, SpendsWithinBudget) {
  const Instance inst = demo();  // unit sizes
  const double budget = 9.5;  // allows 3 tasks widened (cost 3 each, m=4)
  const Placement p = MemoryBudgetPlacement(budget).place(inst);
  double spent = 0;
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    spent += inst.size(j) * static_cast<double>(p.replication_degree(j) - 1);
  }
  EXPECT_LE(spent, budget + 1e-9);
  EXPECT_EQ(p.max_replication_degree(), 4u);  // something was widened
  // Exactly 3 tasks widened: floor(9.5 / 3).
  std::size_t widened = 0;
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    widened += p.replication_degree(j) > 1;
  }
  EXPECT_EQ(widened, 3u);
}

TEST(MemoryBudget, RejectsNegativeBudget) {
  EXPECT_THROW(MemoryBudgetPlacement(-1.0), std::invalid_argument);
}

TEST(MemoryBudget, MemoryMetricTracksBudget) {
  const Instance inst = demo();
  const Placement tight = MemoryBudgetPlacement(0.0).place(inst);
  const Placement loose = MemoryBudgetPlacement(30.0).place(inst);
  EXPECT_LT(max_memory(tight, inst), max_memory(loose, inst));
}

// Property: the adversarial ratio is non-increasing in the critical
// fraction (more replication never hurts against this adversary).
class CriticalFractionMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CriticalFractionMonotone, AdversaryRatioNonIncreasing) {
  const Instance inst = demo(4, 2.0, GetParam());
  RatioExperimentConfig config;
  config.exact_node_budget = 500'000;
  double previous = 1e300;
  for (double f : {0.0, 0.25, 0.5, 1.0}) {
    const RatioTrial trial =
        measure_adversarial_ratio(make_critical_tasks(f), inst, config);
    EXPECT_LE(trial.ratio, previous + 0.15)  // small tolerance: adversary
        << "fraction " << f;                 // targets differ per placement
    previous = trial.ratio;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CriticalFractionMonotone,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace rdp
