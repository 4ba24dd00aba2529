// Tests for speculative execution (backup copies on uniform machines).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "check/reference_dispatcher.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
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

// Idle machines with no eligible work retire for the rest of the run.
// Many machines retiring at once (only 2 of 16 ever hold work) must
// neither hang the event loop nor perturb the schedule.
TEST(Speculative, ManyIdleMachinesStayConsistent) {
  constexpr MachineId kMachines = 16;
  // Both tasks pinned to machines 0 and 1; 14 machines retire at t=0.
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
  // Retired machines never ran anything.
  EXPECT_EQ(spec.trace.size(), 2u + spec.duplicates_launched);
}

// Per-run state lives in the reused thread workspace: a run with fewer
// machines right after a wider run must not touch machine ids from the
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
  // NaN would pass every `remaining < threshold` test as false, i.e.
  // speculate on everything; it is rejected by name.
  SpeculationPolicy nan_threshold;
  nan_threshold.min_estimated_remaining = std::numeric_limits<Time>::quiet_NaN();
  try {
    (void)dispatch_speculative(inst, p, r, identity(1), SpeedProfile::identical(1),
                               nan_threshold);
    ADD_FAILURE() << "NaN min_estimated_remaining was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "dispatch_speculative: min_estimated_remaining must not be NaN");
  }
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

TEST(Speculative, RejectsNonFiniteOrNegativeDurations) {
  // A NaN duration once came back as a schedule with makespan 45.16.
  const Instance inst = Instance::from_estimates({1.0, 2.0, 3.0, 4.0, 5.0}, 2, 1.5);
  const Placement p = Placement::everywhere(5, 2);
  for (const Time bad : {std::numeric_limits<Time>::quiet_NaN(), Time{-1.0},
                         std::numeric_limits<Time>::infinity()}) {
    Realization r = exact_realization(inst);
    r.actual[3] = bad;
    try {
      (void)dispatch_speculative(inst, p, r, identity(5), SpeedProfile::identical(2),
                                 SpeculationPolicy{});
      ADD_FAILURE() << "duration " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "dispatch_speculative: actual durations must be finite and "
                "non-negative");
    }
  }
}

// A winning finish alone at its instant -- no copy killed, nothing else
// pending then -- runs its machine's free inline.
// Each case below forces a declining path (or a zero-length chain) and
// must match the queue-only reference bit for bit.

struct TracedSpeculativeRun {
  SpeculativeResult result;
  std::uint64_t inline_frees = 0;
};

TracedSpeculativeRun run_against_reference(const Instance& inst, const Placement& p,
                                           const Realization& r,
                                           const SpeedProfile& speeds,
                                           const SpeculationPolicy& policy = {}) {
  const std::vector<TaskId> priority = identity(inst.num_tasks());
  obs::MetricsRegistry registry;
  TracedSpeculativeRun run;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    run.result = dispatch_speculative(inst, p, r, priority, speeds, policy);
  }
  run.inline_frees = registry.counter("sim.speculative.inline_frees").value();
  const SpeculativeResult want =
      check::reference_dispatch_speculative(inst, p, r, priority, speeds, policy);
  const SpeculativeResult& got = run.result;
  EXPECT_EQ(got.schedule.assignment.machine_of, want.schedule.assignment.machine_of);
  EXPECT_EQ(got.schedule.start, want.schedule.start);
  EXPECT_EQ(got.schedule.finish, want.schedule.finish);
  EXPECT_EQ(got.duplicates_launched, want.duplicates_launched);
  EXPECT_EQ(got.duplicates_won, want.duplicates_won);
  EXPECT_EQ(got.wasted_time, want.wasted_time);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.trace.size(), want.trace.size());
  for (std::size_t k = 0; k < std::min(got.trace.size(), want.trace.size()); ++k) {
    const DispatchEvent& a = got.trace.events[k];
    const DispatchEvent& b = want.trace.events[k];
    EXPECT_EQ(a.when, b.when) << "event " << k;
    EXPECT_EQ(a.task, b.task) << "event " << k;
    EXPECT_EQ(a.machine, b.machine) << "event " << k;
    EXPECT_EQ(a.actual, b.actual) << "event " << k;
  }
  return run;
}

TEST(SpeculativeInlineFree, TwoMachinesFinishingTogetherQueueTheirFrees) {
  // t=1: m0 alone, inline: T2 (1-3). t=3: m1's and m0's finishes tie;
  // both frees queue and hand T3 to m0 by machine id. t=4: m0 alone
  // again, inline; it finds nothing worth a backup and retires.
  const Instance inst = Instance::from_estimates({1.0, 3.0, 2.0, 1.0, 2.0}, 2, 1.0);
  const TracedSpeculativeRun run =
      run_against_reference(inst, Placement::everywhere(5, 2), exact_realization(inst),
                            SpeedProfile::identical(2));
  EXPECT_EQ(run.result.schedule.assignment[3], 0u);
  EXPECT_EQ(run.result.schedule.assignment[4], 1u);
  EXPECT_EQ(run.inline_frees, 2u);
}

TEST(SpeculativeInlineFree, WinningBackupThatKillsTheOriginalQueuesItsFree) {
  // m0 (speed 0.2) runs T0 from 0 to 50. m1 runs T1 and T2 (inline frees
  // at 3 and 6), then backs T0 up at 6 (inline) and wins at 16. The win
  // kills m0's copy: both frees queue, m0 takes T3 (pinned to it) and
  // m1 retires.
  const Instance inst = Instance::from_estimates({10.0, 3.0, 3.0, 2.0}, 2, 1.0);
  const Placement p({{0, 1}, {1}, {1}, {0}}, 2);
  const TracedSpeculativeRun run =
      run_against_reference(inst, p, exact_realization(inst), SpeedProfile({0.2, 1.0}));
  EXPECT_EQ(run.result.duplicates_won, 1u);
  EXPECT_DOUBLE_EQ(run.result.wasted_time, 16.0);
  EXPECT_DOUBLE_EQ(run.result.schedule.start[3], 16.0);
  EXPECT_DOUBLE_EQ(run.result.makespan, 26.0);
  EXPECT_EQ(run.inline_frees, 2u);
}

TEST(SpeculativeInlineFree, FinishWhileMachinesAreRetiredRunsItsFreeInline) {
  // m2 holds no replica and retires at t=0; m1 retires once T2 is done
  // (inline, at t=1). Retired machines are never woken, so T0's finish at
  // t=4 is alone too and hands T1 to m0 inline. The reference, which
  // still wakes every idle machine, must agree bit for bit.
  const Instance inst = Instance::from_estimates({4.0, 2.0, 1.0}, 3, 1.0);
  const Placement p({{0}, {0}, {1}}, 3);
  const TracedSpeculativeRun run = run_against_reference(
      inst, p, exact_realization(inst), SpeedProfile::identical(3));
  EXPECT_DOUBLE_EQ(run.result.schedule.start[1], 4.0);
  EXPECT_EQ(run.inline_frees, 2u);
}

TEST(SpeculativeInlineFree, ZeroLengthTasksMatchTheReference) {
  const Instance inst = Instance::from_estimates({1.0, 1.0, 2.0, 1.0, 1.0}, 2, 1.0);
  Realization r;
  r.actual = {0.0, 0.0, 2.0, 1.0, 0.0};
  (void)run_against_reference(inst, Placement::everywhere(5, 2), r,
                              SpeedProfile({1.0, 0.25}));
  const Instance one = Instance::from_estimates({1.0, 1.0, 1.0}, 1, 1.0);
  Realization chain;
  chain.actual = {0.0, 0.0, 1.0};
  EXPECT_EQ(run_against_reference(one, Placement::everywhere(3, 1), chain,
                                  SpeedProfile::identical(1))
                .inline_frees,
            2u);
}

TEST(SpeculativeInlineFree, IntegerTimesWithStragglersMatchTheReference) {
  // Integer actuals over speeds 1 and 0.25 keep every copy's finish on a
  // quarter grid, so finishes, kills and wakes share instants often.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    WorkloadParams params;
    params.num_tasks = 40;
    params.num_machines = 6;
    params.alpha = 2.0;
    params.seed = seed;
    const Instance inst = uniform_workload(params);
    Realization r = realize(inst, NoiseModel::kUniform, seed + 100);
    for (Time& a : r.actual) a = std::max(Time{1}, std::round(a));
    std::vector<MachineId> group(40);
    for (TaskId j = 0; j < 40; ++j) group[j] = j % 3;
    SCOPED_TRACE(seed);
    const SpeedProfile speeds = SpeedProfile::with_stragglers(6, 2, 0.25);
    (void)run_against_reference(inst, Placement::everywhere(40, 6), r, speeds);
    (void)run_against_reference(inst, Placement::in_groups(group, 3, 6), r, speeds);
  }
}

// A machine with neither waiting work nor a backup to launch retires for
// the rest of the run, on the argument that no task becomes waiting again
// and that every backup condition (copy count, remaining-estimate
// threshold) only tightens with time. The reference never retires a
// machine: it wakes every idle one at each completion. Each policy knob
// the argument leans on must leave the two bit-identical.
TEST(SpeculativeInlineFree, RetiringMatchesTheReferenceUnderEveryPolicy) {
  // Six distinct speeds let a task gather a second and a third copy, and
  // short estimates put the remaining-estimate threshold in play.
  const SpeedProfile speeds({1.0, 0.2, 0.6, 0.3, 0.8, 0.4});
  std::vector<MachineId> group(12);
  for (TaskId j = 0; j < 12; ++j) group[j] = j % 2;
  for (const unsigned copies : {2u, 3u}) {
    for (const Time threshold : {-1.0, 0.0, 3.0, 8.0}) {
      std::size_t backups = 0;
      SpeculationPolicy policy;
      policy.max_copies = copies;
      policy.min_estimated_remaining = threshold;
      for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        WorkloadParams params;
        params.num_tasks = 12;
        params.num_machines = 6;
        params.alpha = 2.0;
        params.seed = seed;
        const Instance inst = uniform_workload(params, 1.0, 10.0);
        const Realization r = realize(inst, NoiseModel::kUniform, seed + 200);
        SCOPED_TRACE(::testing::Message() << "max_copies " << copies << ", threshold "
                                          << threshold << ", seed " << seed);
        backups += run_against_reference(inst, Placement::everywhere(12, 6), r, speeds,
                                         policy)
                       .result.duplicates_launched;
        backups += run_against_reference(inst, Placement::in_groups(group, 2, 6), r,
                                         speeds, policy)
                       .result.duplicates_launched;
      }
      // The grid must exercise the backup path, not only plain dispatch.
      EXPECT_GT(backups, 0u) << "max_copies " << copies << ", threshold " << threshold;
    }
  }
}

}  // namespace
}  // namespace rdp
