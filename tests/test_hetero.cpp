// Tests for the uniform-machines (Q||Cmax) extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "hetero/uniform_machines.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

TEST(SpeedProfile, ValidationAndFactories) {
  EXPECT_THROW(SpeedProfile({}), std::invalid_argument);
  EXPECT_THROW(SpeedProfile({1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(SpeedProfile({1.0, std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  EXPECT_THROW(SpeedProfile::with_stragglers(2, 3, 0.5), std::invalid_argument);

  const SpeedProfile p = SpeedProfile::with_stragglers(4, 1, 0.5);
  EXPECT_DOUBLE_EQ(p.speed(0), 0.5);
  EXPECT_DOUBLE_EQ(p.speed(3), 1.0);
  EXPECT_DOUBLE_EQ(p.total_speed(), 3.5);
  EXPECT_DOUBLE_EQ(*std::max_element(p.speeds().begin(), p.speeds().end()), 1.0);
}

TEST(SpeedProfile, RejectsInfiniteSpeeds) {
  // An infinite speed makes every duration on that machine 0 (or NaN for
  // a zero-work task).
  try {
    (void)SpeedProfile({1.0, std::numeric_limits<double>::infinity()});
    ADD_FAILURE() << "an infinite speed was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "SpeedProfile: speeds must be finite and positive");
  }
}

TEST(UniformMakespan, ScalesBySpeed) {
  Instance inst = Instance::from_estimates({4.0, 4.0}, 2, 1.0);
  const SpeedProfile p({0.5, 2.0});
  // Task 0 pinned to machine 0, task 1 to machine 1.
  const DispatchResult d =
      dispatch_online(inst, Placement::singleton({0, 1}, 2), exact_realization(inst),
                      {0, 1}, {}, p.speeds());
  // Machine 0: 4/0.5 = 8; machine 1: 4/2 = 2.
  EXPECT_DOUBLE_EQ(d.schedule.finish[0], 8.0);
  EXPECT_DOUBLE_EQ(d.schedule.finish[1], 2.0);
  EXPECT_DOUBLE_EQ(d.schedule.makespan(), 8.0);
}

TEST(UniformLowerBound, KnownValues) {
  const std::vector<Time> work = {10.0, 2.0};
  const SpeedProfile p({2.0, 1.0});
  // Heaviest job on the fastest machine: 10/2 = 5; avg: 12/3 = 4.
  EXPECT_DOUBLE_EQ(makespan_lower_bound_uniform(work, p), 5.0);
}

TEST(UniformLpt, IdenticalSpeedsMatchBaseLpt) {
  WorkloadParams params;
  params.num_tasks = 20;
  params.num_machines = 4;
  params.seed = 3;
  const Instance inst = uniform_workload(params);
  const auto estimates = inst.estimates();
  const GreedyScheduleResult base = lpt_schedule(estimates, 4);
  const GreedyScheduleResult uniform =
      lpt_uniform_schedule(estimates, SpeedProfile::identical(4));
  EXPECT_DOUBLE_EQ(uniform.makespan, base.makespan);
  for (TaskId j = 0; j < 20; ++j) {
    EXPECT_EQ(uniform.assignment[j], base.assignment[j]);
  }
}

TEST(UniformLpt, SlowMachineGetsLessWork) {
  std::vector<Time> work(12, 1.0);
  const SpeedProfile p({0.25, 1.0, 1.0, 1.0});
  const GreedyScheduleResult r = lpt_uniform_schedule(work, p);
  std::vector<int> counts(4, 0);
  for (TaskId j = 0; j < 12; ++j) ++counts[r.assignment[j]];
  EXPECT_LT(counts[0], counts[1]);
  EXPECT_LT(counts[0], counts[3]);
}

TEST(UniformLpt, WithinTwoOfLowerBound) {
  // Gonzalez-Ibarra-Sahni-style sanity: LPT-uniform stays within 2x the
  // analytic lower bound over random speeds and works.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    WorkloadParams params;
    params.num_tasks = 25;
    params.num_machines = 5;
    params.seed = seed;
    const Instance inst = uniform_workload(params);
    const auto estimates = inst.estimates();
    std::vector<double> speeds = {0.25, 0.5, 1.0, 2.0, 4.0};
    const SpeedProfile profile(speeds);
    const GreedyScheduleResult r = lpt_uniform_schedule(estimates, profile);
    const Time lb = makespan_lower_bound_uniform(estimates, profile);
    ASSERT_GT(lb, 0.0);
    EXPECT_LE(r.makespan, 2.0 * lb + 1e-9) << "seed " << seed;
  }
}

TEST(UniformDispatch, SpeedsValidated) {
  Instance inst = Instance::from_estimates({1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(1, 2);
  const Realization r = exact_realization(inst);
  EXPECT_THROW((void)dispatch_online(inst, p, r, {0}, {}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)dispatch_online(inst, p, r, {0}, {}, {1.0, -1.0}),
               std::invalid_argument);
}

TEST(UniformDispatch, DurationsScaledOnline) {
  // One task, two machines idle at 0; machine 0 (id tie-break) takes it;
  // with speed 0.5 it runs twice as long.
  Instance inst = Instance::from_estimates({4.0}, 2, 1.0);
  const Placement p = Placement::everywhere(1, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(inst, p, r, {0}, {}, {0.5, 1.0});
  EXPECT_EQ(d.schedule.assignment[0], 0u);
  EXPECT_DOUBLE_EQ(d.schedule.finish[0], 8.0);
}

TEST(UniformDispatch, FasterMachineFreesFirst) {
  // Tasks of equal estimate: m1 (fast) finishes first and takes the
  // third task even though m0 has the lower id.
  Instance inst = Instance::from_estimates({4.0, 4.0, 4.0}, 2, 1.0);
  const Placement p = Placement::everywhere(3, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(inst, p, r, {0, 1, 2}, {}, {0.5, 2.0});
  EXPECT_EQ(d.schedule.assignment[2], 1u);
  EXPECT_DOUBLE_EQ(d.schedule.start[2], 2.0);  // m1 freed at 4/2
}

TEST(UniformStrategies, RunAndRespectPlacement) {
  WorkloadParams params;
  params.num_tasks = 24;
  params.num_machines = 6;
  params.alpha = 1.5;
  params.seed = 7;
  const Instance inst = uniform_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, 9);
  const SpeedProfile profile = SpeedProfile::with_stragglers(6, 2, 0.5);

  const UniformStrategyResult pinned = run_no_choice_uniform(inst, actual, profile);
  check::InvariantOptions with_speeds;
  with_speeds.speeds = profile.speeds();
  EXPECT_TRUE(check::check_invariants(inst, pinned.placement, actual, pinned.schedule,
                                      with_speeds)
                  .empty());
  EXPECT_EQ(pinned.placement.max_replication_degree(), 1u);

  const UniformStrategyResult grouped = run_group_uniform(inst, actual, profile, 3);
  EXPECT_TRUE(check::check_invariants(inst, grouped.placement, actual, grouped.schedule,
                                      with_speeds)
                  .empty());
  EXPECT_EQ(grouped.placement.max_replication_degree(), 2u);

  const UniformStrategyResult full =
      run_no_restriction_uniform(inst, actual, profile);
  EXPECT_EQ(full.placement.max_replication_degree(), 6u);
}

TEST(UniformStrategies, ReplicationHelpsWithStragglers) {
  // Straggler machines are a *machine-side* uncertainty the estimates
  // cannot see (placement assumes identical speeds if it pins naively);
  // online dispatch with replication adapts. Compare no-choice placement
  // built WITHOUT speed knowledge vs full replication.
  WorkloadParams params;
  params.num_tasks = 36;
  params.num_machines = 6;
  params.alpha = 1.2;
  params.seed = 11;
  const Instance inst = uniform_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, 13);
  const SpeedProfile profile = SpeedProfile::with_stragglers(6, 2, 0.4);

  // Speed-oblivious pinning (identical-machine LPT) on the real cluster:
  const Placement naive =
      Placement::singleton(lpt_schedule(inst.estimates(), 6).assignment.machine_of,
                           6);
  const DispatchResult naive_run =
      dispatch_online(inst, naive, actual,
                      make_priority(inst, PriorityRule::kInputOrder), {},
                      profile.speeds());

  const UniformStrategyResult full =
      run_no_restriction_uniform(inst, actual, profile);
  EXPECT_LT(full.makespan, naive_run.schedule.makespan());

  // Speed-aware pinning recovers some of the gap but still trails full
  // replication under per-task noise.
  const UniformStrategyResult aware = run_no_choice_uniform(inst, actual, profile);
  EXPECT_LT(aware.makespan, naive_run.schedule.makespan());
}

TEST(UniformStrategies, GroupCapacityBalancing) {
  // Groups with unequal capacity get work proportional to capacity.
  Instance inst = unit_tasks(30, 4, 1.0);
  const Realization actual = exact_realization(inst);
  const SpeedProfile profile({1.0, 1.0, 3.0, 3.0});  // group1 3x capacity
  const UniformStrategyResult r = run_group_uniform(inst, actual, profile, 2);
  int group0 = 0, group1 = 0;
  for (TaskId j = 0; j < 30; ++j) {
    (r.schedule.assignment[j] < 2 ? group0 : group1) += 1;
  }
  EXPECT_GT(group1, 2 * group0);
}

}  // namespace
}  // namespace rdp
