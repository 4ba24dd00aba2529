// Tests for the general (overlapping) replication policies.
#include <gtest/gtest.h>

#include <set>

#include "algo/overlap.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "exp/ratio_experiment.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance demo(MachineId m = 6, std::uint64_t seed = 8) {
  WorkloadParams params;
  params.num_tasks = 30;
  params.num_machines = m;
  params.alpha = 1.8;
  params.seed = seed;
  return uniform_workload(params, 1.0, 10.0);
}

TEST(SlidingWindow, SetsAreContiguousWindows) {
  const Instance inst = demo(6);
  const Placement p = SlidingWindowPlacement(3).place(inst);
  EXPECT_EQ(check_placement(inst, p), "");
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    const auto& set = p.machines_for(j);
    ASSERT_EQ(set.size(), 3u);
    // A sorted window of size r over Z_6 is either contiguous or wraps.
    const bool contiguous =
        set[1] == set[0] + 1 && set[2] == set[1] + 1;
    const bool wraps = set[0] == 0 &&
                       ((set[1] == 1 && set[2] == 5) ||
                        (set[1] == 4 && set[2] == 5));
    EXPECT_TRUE(contiguous || wraps) << "task " << j;
  }
}

TEST(SlidingWindow, WindowOneIsSingleton) {
  const Instance inst = demo();
  const Placement p = SlidingWindowPlacement(1).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 1u);
}

TEST(SlidingWindow, WindowMIsEverywhere) {
  const Instance inst = demo(6);
  const Placement p = SlidingWindowPlacement(6).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 6u);
}

TEST(SlidingWindow, WorksForNonDivisorDegrees) {
  // The whole point vs partition groups: r=4 on m=6 is legal.
  const Instance inst = demo(6);
  const Placement p = SlidingWindowPlacement(4).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 4u);
  EXPECT_EQ(check_placement(inst, p), "");
}

TEST(SlidingWindow, RejectsBadWindows) {
  EXPECT_THROW(SlidingWindowPlacement(0), std::invalid_argument);
  const Instance inst = demo(4);
  EXPECT_THROW((void)SlidingWindowPlacement(5).place(inst), std::invalid_argument);
}

TEST(SlidingWindow, AnchorsSpreadAcrossMachines) {
  // With equal tasks, greedy anchoring must rotate windows rather than
  // stacking everything on one window.
  const Instance inst = unit_tasks(12, 6, 1.5);
  const Placement p = SlidingWindowPlacement(2).place(inst);
  std::set<std::vector<MachineId>> distinct;
  for (TaskId j = 0; j < 12; ++j) distinct.insert(p.machines_for(j));
  // Greedy anchoring with unit tasks tiles the ring with disjoint windows
  // ({0,1},{2,3},{4,5}) before reusing one -- at least m/r distinct sets.
  EXPECT_GE(distinct.size(), 3u);
  // And the per-machine fractional load ends up perfectly balanced.
  std::vector<double> load(6, 0.0);
  for (TaskId j = 0; j < 12; ++j) {
    for (MachineId i : p.machines_for(j)) load[i] += 0.5;
  }
  for (double l : load) EXPECT_DOUBLE_EQ(l, 2.0);
}

TEST(SlidingWindow, StrategyRunsFeasibly) {
  const Instance inst = demo();
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 5);
  const StrategyResult r = make_sliding_window(3).run(inst, actual);
  EXPECT_TRUE(check::check_invariants(inst, r.placement, actual, r.schedule).empty());
  EXPECT_EQ(check_schedule(inst, actual, r.schedule, true), "");
}

TEST(RandomSubset, DegreeRespectedAndDeterministic) {
  const Instance inst = demo();
  const Placement a = RandomSubsetPlacement(2, 42).place(inst);
  const Placement b = RandomSubsetPlacement(2, 42).place(inst);
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    EXPECT_EQ(a.replication_degree(j), 2u);
    EXPECT_EQ(a.machines_for(j), b.machines_for(j));
  }
}

TEST(RandomSubset, DifferentSeedsDiffer) {
  const Instance inst = demo();
  const Placement a = RandomSubsetPlacement(2, 42).place(inst);
  const Placement b = RandomSubsetPlacement(2, 43).place(inst);
  int same = 0;
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    same += a.machines_for(j) == b.machines_for(j);
  }
  EXPECT_LT(same, 15);
}

TEST(RandomSubset, RejectsBadDegree) {
  EXPECT_THROW(RandomSubsetPlacement(0, 1), std::invalid_argument);
  const Instance inst = demo(4);
  EXPECT_THROW((void)RandomSubsetPlacement(9, 1).place(inst), std::invalid_argument);
}

TEST(RandomSubset, StrategyRunsFeasibly) {
  const Instance inst = demo();
  const Realization actual = realize(inst, NoiseModel::kUniform, 2);
  const StrategyResult r = make_random_subset(3, 11).run(inst, actual);
  EXPECT_TRUE(check::check_invariants(inst, r.placement, actual, r.schedule).empty());
}

// Property: overlapping windows never do *much* worse than partition
// groups of the same degree under stochastic noise, and both beat
// pinning. (A structural sanity sweep, not a theorem.)
class OverlapVsPartition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlapVsPartition, WindowsCompetitiveWithGroups) {
  const Instance inst = demo(6, GetParam());
  RatioExperimentConfig config;
  config.exact_node_budget = 0;  // LB denominators; comparing like-for-like
  const RatioAggregate window = measure_ratio_batch(
      make_sliding_window(3), inst, NoiseModel::kTwoPoint, 6, 77, config);
  const RatioAggregate group = measure_ratio_batch(
      make_ls_group(2), inst, NoiseModel::kTwoPoint, 6, 77, config);
  EXPECT_LE(window.ratios.mean(), group.ratios.mean() * 1.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapVsPartition, ::testing::Values(1, 2, 3));

// Structural reduction: when the degree divides m, greedy window
// anchoring tiles the machine ring into disjoint windows and the
// load-greedy anchor choice coincides with List Scheduling over those
// windows -- sliding windows reproduce LS-Group exactly.
class WindowReduction : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowReduction, DivisorDegreeMatchesLsGroup) {
  const Instance inst = demo(6, GetParam());
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 31);
  for (MachineId r : {2u, 3u, 6u}) {
    const StrategyResult window = make_sliding_window(r).run(inst, actual);
    const StrategyResult group = make_ls_group(6 / r).run(inst, actual);
    EXPECT_DOUBLE_EQ(window.makespan, group.makespan) << "degree " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowReduction, ::testing::Values(4, 5, 6));

}  // namespace
}  // namespace rdp
