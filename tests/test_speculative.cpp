// Tests for speculative execution (backup copies on uniform machines).
#include <gtest/gtest.h>

#include <vector>

#include "algo/dispatch_policies.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "perturb/stochastic.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

std::vector<TaskId> identity(std::size_t n) {
  std::vector<TaskId> p(n);
  for (TaskId j = 0; j < n; ++j) p[j] = j;
  return p;
}

TEST(Speculative, DisabledMatchesPlainDispatcher) {
  WorkloadParams params;
  params.num_tasks = 18;
  params.num_machines = 4;
  params.alpha = 1.5;
  params.seed = 3;
  const Instance inst = uniform_workload(params);
  const Placement p = Placement::everywhere(18, 4);
  const Realization r = realize(inst, NoiseModel::kUniform, 5);
  const SpeedProfile speeds({1.0, 0.5, 2.0, 1.0});
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);

  SpeculationPolicy off;
  off.enabled = false;
  const SpeculativeResult spec =
      dispatch_speculative(inst, p, r, priority, speeds, off);
  const DispatchResult plain =
      dispatch_online(inst, p, r, priority, {}, speeds.speeds());
  EXPECT_DOUBLE_EQ(spec.makespan, plain.schedule.makespan());
  for (TaskId j = 0; j < 18; ++j) {
    EXPECT_EQ(spec.schedule.assignment[j], plain.schedule.assignment[j]);
    EXPECT_DOUBLE_EQ(spec.schedule.start[j], plain.schedule.start[j]);
  }
  EXPECT_EQ(spec.duplicates_launched, 0u);
  EXPECT_DOUBLE_EQ(spec.wasted_time, 0.0);
}

TEST(Speculative, IdenticalSpeedsNeverSpeculate) {
  // A backup on an equal-speed machine can never beat the original's
  // estimated finish, so the policy stays quiet.
  Instance inst = Instance::from_estimates({8.0, 1.0, 1.0}, 3, 1.0);
  const Placement p = Placement::everywhere(3, 3);
  const Realization r = exact_realization(inst);
  const SpeculativeResult spec = dispatch_speculative(
      inst, p, r, identity(3), SpeedProfile::identical(3), SpeculationPolicy{});
  EXPECT_EQ(spec.duplicates_launched, 0u);
}

TEST(Speculative, BackupRescuesTaskOnSlowMachine) {
  // Task 0 lands on the slow machine 0 (only idle one at its dispatch);
  // machine 1 (fast) later idles and duplicates it, finishing first.
  Instance inst = Instance::from_estimates({10.0, 4.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const SpeedProfile speeds({0.25, 1.0});  // m0 4x slower
  // Priority: task 0 first -> m0 takes it at t=0 (40s); m1 takes task 1
  // (4s), idles at 4, duplicates task 0 (10s on m1 -> done at 14).
  const SpeculativeResult spec = dispatch_speculative(
      inst, p, r, identity(2), speeds, SpeculationPolicy{});
  EXPECT_EQ(spec.duplicates_launched, 1u);
  EXPECT_EQ(spec.duplicates_won, 1u);
  EXPECT_EQ(spec.schedule.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(spec.schedule.finish[0], 14.0);
  EXPECT_DOUBLE_EQ(spec.makespan, 14.0);
  // The killed copy burned machine 0 from t=0 to t=14.
  EXPECT_DOUBLE_EQ(spec.wasted_time, 14.0);

  // Without speculation the task crawls on m0 for 40s.
  SpeculationPolicy off;
  off.enabled = false;
  const SpeculativeResult base =
      dispatch_speculative(inst, p, r, identity(2), speeds, off);
  EXPECT_DOUBLE_EQ(base.makespan, 40.0);
}

TEST(Speculative, PlacementGatesBackups) {
  // Same scenario but task 0's data only lives on machine 0: no backup
  // is possible and the slow run stands.
  Instance inst = Instance::from_estimates({10.0, 4.0}, 2, 1.0);
  const Placement p = Placement::singleton({0, 1}, 2);
  const Realization r = exact_realization(inst);
  const SpeedProfile speeds({0.25, 1.0});
  const SpeculativeResult spec = dispatch_speculative(
      inst, p, r, identity(2), speeds, SpeculationPolicy{});
  EXPECT_EQ(spec.duplicates_launched, 0u);
  EXPECT_DOUBLE_EQ(spec.makespan, 40.0);
}

TEST(Speculative, MaxCopiesRespected) {
  // Three fast machines idle; only one backup may launch at max_copies=2.
  Instance inst = Instance::from_estimates({10.0}, 4, 1.0);
  const Placement p = Placement::everywhere(1, 4);
  const Realization r = exact_realization(inst);
  const SpeedProfile speeds({0.1, 1.0, 1.0, 1.0});
  SpeculationPolicy policy;
  policy.max_copies = 2;
  const SpeculativeResult spec =
      dispatch_speculative(inst, p, r, identity(1), speeds, policy);
  EXPECT_EQ(spec.duplicates_launched, 1u);
  EXPECT_DOUBLE_EQ(spec.makespan, 10.0);  // backup on a speed-1 machine
}

TEST(Speculative, LoserCopyKilledAndMachineReused) {
  // After the backup wins, the original's machine must pick up new work.
  Instance inst = Instance::from_estimates({10.0, 3.0, 3.0}, 2, 1.0);
  const Placement p = Placement::everywhere(3, 2);
  const Realization r = exact_realization(inst);
  const SpeedProfile speeds({0.2, 1.0});
  // t=0: m0 <- task0 (50s), m1 <- task1 (3s). t=3: m1 <- task2 (3s).
  // t=6: m1 idles, duplicates task0 (10s, est beats 50) -> wins at 16.
  // m0 freed at 16 -- nothing left to do.
  const SpeculativeResult spec = dispatch_speculative(
      inst, p, r, identity(3), speeds, SpeculationPolicy{});
  EXPECT_EQ(spec.duplicates_won, 1u);
  EXPECT_DOUBLE_EQ(spec.makespan, 16.0);
  EXPECT_DOUBLE_EQ(spec.wasted_time, 16.0);
  EXPECT_EQ(spec.trace.size(), 4u);  // 3 tasks + 1 backup
}

// Satellite regression: idle machines with no eligible work used to be
// found by rescanning all m parked flags on every completion; they now
// park on an explicit list. Many machines parking and staying parked for
// most of the run (only 2 of 16 ever hold work) must neither hang the
// event loop nor perturb the schedule.
TEST(Speculative, ManyParkedMachinesStayConsistent) {
  constexpr MachineId kMachines = 16;
  // Both tasks pinned to machines 0 and 1; 14 machines park at t=0 and
  // are re-woken (to no work) at every completion.
  Instance inst = Instance::from_estimates({8.0, 8.0}, kMachines, 1.0);
  const Placement p(std::vector<std::vector<MachineId>>(2, {0, 1}), kMachines);
  const Realization r = exact_realization(inst);
  std::vector<double> speed_values(kMachines, 1.0);
  speed_values[0] = 0.5;  // slow primary -> the other pinned machine backs up
  const SpeedProfile speeds(speed_values);
  const SpeculativeResult spec = dispatch_speculative(
      inst, p, r, identity(2), speeds, SpeculationPolicy{});
  // t=0: m0 <- task0 (16s), m1 <- task1 (8s). t=8: m1 idles, duplicates
  // task0 (est remaining 16 > threshold, est finish 16 < 16s? my_est =
  // 8+8=16 -> not strictly better; no backup) -- so task0 crawls to 16.
  EXPECT_DOUBLE_EQ(spec.makespan, 16.0);
  EXPECT_EQ(spec.schedule.assignment[0], 0u);
  EXPECT_EQ(spec.schedule.assignment[1], 1u);
  // Parked machines never ran anything.
  EXPECT_EQ(spec.trace.size(), 2u + spec.duplicates_launched);
}

// The parked list lives in the reused thread workspace: a run with fewer
// machines right after a wider run must not wake machine ids from the
// previous run (they would be out of range).
TEST(Speculative, WorkspaceReuseAcrossShrinkingMachineCounts) {
  for (const MachineId m : {MachineId{32}, MachineId{4}, MachineId{2}}) {
    Instance inst = Instance::from_estimates({6.0, 3.0, 2.0}, m, 1.0);
    const Placement p = Placement::everywhere(3, m);
    const Realization r = exact_realization(inst);
    const SpeedProfile speeds(std::vector<double>(m, 1.0));
    const SpeculativeResult spec = dispatch_speculative(
        inst, p, r, identity(3), speeds, SpeculationPolicy{});
    EXPECT_DOUBLE_EQ(spec.makespan, 6.0);
    for (const DispatchEvent& e : spec.trace.events) {
      EXPECT_LT(e.machine, m);
    }
  }
}

TEST(Speculative, TiedBackupCandidatesGoToTheLowerId) {
  // Tasks 0 and 1 start together on the two 0.25-speed machines, so both
  // have earliest estimated finish 16. Machine 2 finishes task 2 at t=1,
  // finds nothing waiting, and must back up task 0 -- the lower id --
  // whichever of the two ranks (and so launched) first.
  Instance inst = Instance::from_estimates({4.0, 4.0, 1.0}, 3, 1.0);
  const Placement p = Placement::everywhere(3, 3);
  const Realization r = exact_realization(inst);
  const SpeedProfile speeds({0.25, 0.25, 1.0});
  for (const std::vector<TaskId>& priority :
       {std::vector<TaskId>{0, 1, 2}, std::vector<TaskId>{1, 0, 2}}) {
    const SpeculativeResult spec =
        dispatch_speculative(inst, p, r, priority, speeds, SpeculationPolicy{});
    ASSERT_GE(spec.trace.size(), 4u);
    const DispatchEvent& backup = spec.trace.events[3];
    EXPECT_DOUBLE_EQ(backup.when, 1.0);
    EXPECT_EQ(backup.task, 0u) << "priority starts with task " << priority[0];
    EXPECT_EQ(backup.machine, 2u);
    EXPECT_EQ(spec.schedule.assignment[0], 2u);
    EXPECT_DOUBLE_EQ(spec.schedule.finish[0], 5.0);
  }
}

TEST(Speculative, ValidatesInputs) {
  Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  const Placement p = Placement::singleton({0}, 1);
  const Realization r = exact_realization(inst);
  SpeculationPolicy bad;
  bad.max_copies = 0;
  EXPECT_THROW((void)dispatch_speculative(inst, p, r, identity(1),
                                          SpeedProfile::identical(1), bad),
               std::invalid_argument);
  EXPECT_THROW((void)dispatch_speculative(inst, p, r, {0, 0},
                                          SpeedProfile::identical(1),
                                          SpeculationPolicy{}),
               std::invalid_argument);
  EXPECT_THROW((void)dispatch_speculative(inst, p, r, identity(1),
                                          SpeedProfile::identical(2),
                                          SpeculationPolicy{}),
               std::invalid_argument);
  // A placement built for a different machine count than the instance.
  EXPECT_THROW((void)dispatch_speculative(inst, Placement::singleton({0}, 2), r,
                                          identity(1), SpeedProfile::identical(1),
                                          SpeculationPolicy{}),
               std::invalid_argument);
}

TEST(Speculative, StochasticRunStaysFeasible) {
  WorkloadParams params;
  params.num_tasks = 24;
  params.num_machines = 6;
  params.alpha = 1.6;
  params.seed = 9;
  const Instance inst = uniform_workload(params);
  const Placement p = Placement::in_groups({0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2,
                                            0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2},
                                           3, 6);
  const Realization r = realize(inst, NoiseModel::kUniform, 10);
  const SpeedProfile speeds = SpeedProfile::with_stragglers(6, 2, 0.3);
  const SpeculativeResult spec = dispatch_speculative(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst), speeds,
      SpeculationPolicy{});
  // Every task completed on a machine holding its data.
  for (TaskId j = 0; j < 24; ++j) {
    EXPECT_TRUE(p.allows(j, spec.schedule.assignment[j])) << "task " << j;
    EXPECT_GT(spec.schedule.finish[j], spec.schedule.start[j]);
  }
  EXPECT_GT(spec.makespan, 0.0);
}

}  // namespace
}  // namespace rdp
