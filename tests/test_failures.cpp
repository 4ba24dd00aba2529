// Tests for the failure-aware dispatcher (fail-stop machines, restarts,
// data refetch).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

std::vector<TaskId> identity_priority(std::size_t n) {
  std::vector<TaskId> p(n);
  for (TaskId j = 0; j < n; ++j) p[j] = j;
  return p;
}

TEST(Failures, NoFailuresMatchesPlainDispatcher) {
  Instance inst = Instance::from_estimates({5.0, 4.0, 3.0, 2.0, 1.0}, 2, 1.5);
  const Placement p = Placement::everywhere(5, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);

  const DispatchResult plain = dispatch_online(inst, p, r, priority);
  const FailureDispatchResult with_failures =
      dispatch_with_failures(inst, p, r, priority, FailurePlan{});
  EXPECT_DOUBLE_EQ(with_failures.makespan, plain.schedule.makespan());
  EXPECT_EQ(with_failures.restarts, 0u);
  EXPECT_EQ(with_failures.refetches, 0u);
  for (TaskId j = 0; j < 5; ++j) {
    EXPECT_EQ(with_failures.schedule.assignment[j], plain.schedule.assignment[j]);
    EXPECT_DOUBLE_EQ(with_failures.schedule.start[j], plain.schedule.start[j]);
  }
}

TEST(Failures, RunningTaskRestartsElsewhere) {
  // Task 0 (10s) starts on m0 at t=0; m0 fails at t=4; with full
  // replication the task restarts on whichever machine is free.
  Instance inst = Instance::from_estimates({10.0, 1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 4.0}};
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(2), plan);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(result.refetches, 0u);
  EXPECT_EQ(result.schedule.assignment[0], 1u);  // reran on m1
  EXPECT_GE(result.schedule.start[0], 4.0);      // after the failure
  EXPECT_DOUBLE_EQ(result.schedule.finish[0], result.schedule.start[0] + 10.0);
}

TEST(Failures, PinnedTaskNeedsRefetchWhenItsMachineDies) {
  Instance inst = Instance::from_estimates({3.0, 3.0}, 2, 1.0);
  const Placement p = Placement::singleton({0, 1}, 2);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 1.0}};
  plan.refetch_penalty = 5.0;
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(2), plan);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(result.refetches, 1u);
  EXPECT_EQ(result.schedule.assignment[0], 1u);
  // Restarted run pays the refetch penalty: duration 3 + 5.
  EXPECT_DOUBLE_EQ(result.schedule.finish[0] - result.schedule.start[0], 8.0);
}

TEST(Failures, QueuedTasksFlowToSurvivingReplicas) {
  // Group {0,1} holds tasks 0..3 (each 2s). m0 dies at 0.5: everything
  // still completes inside the group on m1, no refetch needed.
  Instance inst = Instance::from_estimates({2.0, 2.0, 2.0, 2.0}, 4, 1.0);
  const Placement p = Placement::in_groups({0, 0, 0, 0}, 2, 4);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 0.5}};
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(4), plan);
  EXPECT_EQ(result.refetches, 0u);
  for (TaskId j = 0; j < 4; ++j) {
    EXPECT_EQ(result.schedule.assignment[j], 1u) << "task " << j;
  }
  // One restart (the task m0 was running) and a serial tail on m1.
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 8.0);
}

TEST(Failures, ReplicationAvoidsRefetchPenalty) {
  // Same workload, same failure: pinned placement pays the penalty,
  // group placement does not.
  Instance inst = Instance::from_estimates({4.0, 4.0, 4.0, 4.0}, 4, 1.0);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 1.0}};
  plan.refetch_penalty = 20.0;

  const Placement pinned = Placement::singleton({0, 1, 2, 3}, 4);
  const FailureDispatchResult bad =
      dispatch_with_failures(inst, pinned, r, identity_priority(4), plan);
  EXPECT_EQ(bad.refetches, 1u);

  const Placement grouped = Placement::in_groups({0, 0, 1, 1}, 2, 4);
  const FailureDispatchResult good =
      dispatch_with_failures(inst, grouped, r, identity_priority(4), plan);
  EXPECT_EQ(good.refetches, 0u);
  EXPECT_LT(good.makespan, bad.makespan);
}

TEST(Failures, RestartedTaskOutranksTheReplicaSetQueueFront) {
  // One replica set {0, 1}. Task 0 (rank 0) runs on m0, task 1 on m1;
  // m0 dies at t=2 and task 0 waits again. When m1 frees at t=3 the
  // restarted task 0 must beat task 2, the next never-dispatched task.
  Instance inst = Instance::from_estimates({10.0, 3.0, 1.0, 1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(4, 2);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 2.0}};
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(4), plan);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(result.refetches, 0u);
  EXPECT_EQ(result.schedule.assignment[0], 1u);
  EXPECT_DOUBLE_EQ(result.schedule.start[0], 3.0);
  EXPECT_DOUBLE_EQ(result.schedule.start[2], 13.0);
  EXPECT_DOUBLE_EQ(result.schedule.start[3], 14.0);
  EXPECT_DOUBLE_EQ(result.makespan, 15.0);
}

TEST(Failures, ReplicaSetQueueFrontOutranksRestartedTask) {
  // The mirror case. Tasks 0 and 1 live only on m1, task 2 on {0, 1}.
  // m0 takes task 2 at t=0 and dies at t=2; when m1 frees at t=3 the
  // queued task 1 outranks the restarted task 2 and runs first.
  Instance inst = Instance::from_estimates({3.0, 1.0, 10.0}, 2, 1.0);
  const Placement p({{1}, {1}, {0, 1}}, 2);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 2.0}};
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(3), plan);
  EXPECT_EQ(result.restarts, 1u);
  EXPECT_EQ(result.refetches, 0u);
  EXPECT_DOUBLE_EQ(result.schedule.start[1], 3.0);
  EXPECT_EQ(result.schedule.assignment[2], 1u);
  EXPECT_DOUBLE_EQ(result.schedule.start[2], 4.0);
  EXPECT_DOUBLE_EQ(result.makespan, 14.0);
}

TEST(Failures, TaskFinishingExactlyAtFailureSurvives) {
  Instance inst = Instance::from_estimates({2.0}, 1, 1.0);
  const Placement p = Placement::singleton({0}, 1);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 2.0}};  // fails exactly at completion
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(1), plan);
  EXPECT_EQ(result.restarts, 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 2.0);
}

TEST(Failures, AllMachinesDeadThrows) {
  Instance inst = Instance::from_estimates({2.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 0.5}, {1, 0.5}};
  EXPECT_THROW(
      (void)dispatch_with_failures(inst, p, r, identity_priority(2), plan),
      std::invalid_argument);
}

TEST(Failures, ReusedWorkspaceDropsTheLastRunsPendingEvents) {
  // The first run ends with machine 0's failure at t=50 still queued; a
  // second run on the same workspace must start from an empty queue, or
  // that stale failure would kill machine 0 mid-task.
  SimWorkspace ws;
  FailureDispatchResult first;
  const Instance short_tasks = Instance::from_estimates({1.0, 1.0}, 2, 1.0);
  FailurePlan late_failure;
  late_failure.failures = {{0, 50.0}};
  dispatch_with_failures(short_tasks, Placement::everywhere(2, 2),
                         exact_realization(short_tasks), identity_priority(2),
                         late_failure, ws, first);
  EXPECT_EQ(first.restarts, 0u);

  const Instance long_tasks = Instance::from_estimates({200.0, 200.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(long_tasks);
  FailureDispatchResult reused;
  dispatch_with_failures(long_tasks, p, r, identity_priority(2), FailurePlan{},
                         ws, reused);
  SimWorkspace fresh_ws;
  FailureDispatchResult fresh;
  dispatch_with_failures(long_tasks, p, r, identity_priority(2), FailurePlan{},
                         fresh_ws, fresh);
  EXPECT_EQ(reused.restarts, 0u);
  EXPECT_EQ(reused.events_processed, fresh.events_processed);
  EXPECT_EQ(reused.schedule.assignment.machine_of,
            fresh.schedule.assignment.machine_of);
  EXPECT_EQ(reused.schedule.finish, fresh.schedule.finish);
  EXPECT_DOUBLE_EQ(reused.makespan, 200.0);
}

TEST(Failures, InvalidPlansRejected) {
  Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  const Placement p = Placement::singleton({0}, 1);
  const Realization r = exact_realization(inst);
  FailurePlan bad_machine;
  bad_machine.failures = {{7, 1.0}};
  EXPECT_THROW((void)dispatch_with_failures(inst, p, r, identity_priority(1),
                                            bad_machine),
               std::invalid_argument);
  FailurePlan bad_penalty;
  bad_penalty.refetch_penalty = -1.0;
  EXPECT_THROW((void)dispatch_with_failures(inst, p, r, identity_priority(1),
                                            bad_penalty),
               std::invalid_argument);
}

TEST(Failures, NonFinitePlansRejected) {
  // `penalty < 0` style checks are NaN-permeable (every NaN comparison is
  // false); a NaN or infinite time would poison the event-queue ordering.
  Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  const Placement p = Placement::singleton({0}, 1);
  const Realization r = exact_realization(inst);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  for (double bad : {nan, inf, -inf}) {
    FailurePlan bad_penalty;
    bad_penalty.refetch_penalty = bad;
    EXPECT_THROW((void)dispatch_with_failures(inst, p, r, identity_priority(1),
                                              bad_penalty),
                 std::invalid_argument)
        << "penalty " << bad << " must be rejected";
    FailurePlan bad_when;
    bad_when.failures = {{0, bad}};
    EXPECT_THROW((void)dispatch_with_failures(inst, p, r, identity_priority(1),
                                              bad_when),
                 std::invalid_argument)
        << "failure time " << bad << " must be rejected";
  }
}

TEST(Failures, TraceIncludesLostAttempts) {
  Instance inst = Instance::from_estimates({10.0}, 2, 1.0);
  const Placement p = Placement::everywhere(1, 2);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 3.0}};
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(1), plan);
  EXPECT_EQ(result.trace.size(), 2u);  // first attempt + successful rerun
  EXPECT_EQ(result.restarts, 1u);
}

TEST(Failures, MultipleFailuresCascade) {
  Instance inst = Instance::from_estimates({6.0, 6.0, 6.0}, 3, 1.0);
  const Placement p = Placement::everywhere(3, 3);
  const Realization r = exact_realization(inst);
  FailurePlan plan;
  plan.failures = {{0, 1.0}, {1, 2.0}};
  const FailureDispatchResult result =
      dispatch_with_failures(inst, p, r, identity_priority(3), plan);
  EXPECT_EQ(result.restarts, 2u);
  // Everything ends up serialized on machine 2.
  for (TaskId j = 0; j < 3; ++j) {
    EXPECT_EQ(result.schedule.assignment[j], 2u);
  }
  EXPECT_DOUBLE_EQ(result.makespan, 18.0);
}

TEST(Failures, RejectsNonFiniteOrNegativeDurations) {
  // A NaN duration once came back as a schedule with makespan 53.79.
  const Instance inst = Instance::from_estimates({1.0, 2.0, 3.0, 4.0, 5.0}, 2, 1.5);
  const Placement p = Placement::everywhere(5, 2);
  for (const Time bad : {std::numeric_limits<Time>::quiet_NaN(), Time{-1.0},
                         std::numeric_limits<Time>::infinity()}) {
    Realization r = exact_realization(inst);
    r.actual[3] = bad;
    try {
      (void)dispatch_with_failures(inst, p, r, identity_priority(5), FailurePlan{});
      ADD_FAILURE() << "duration " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "dispatch_with_failures: actual durations must be finite and "
                "non-negative");
    }
  }
}

// A finish whose machine's free event would be the queue's next pop runs
// that free inline. Where another event shares the instant the loop
// declines and queues the free; each case below forces one such path and
// must match the queue-only reference bit for bit.

struct TracedFailureRun {
  FailureDispatchResult result;
  std::uint64_t inline_frees = 0;
};

TracedFailureRun run_against_reference(const Instance& inst, const Placement& p,
                                       const Realization& r, const FailurePlan& plan) {
  const std::vector<TaskId> priority = identity_priority(inst.num_tasks());
  obs::MetricsRegistry registry;
  TracedFailureRun run;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    run.result = dispatch_with_failures(inst, p, r, priority, plan);
  }
  run.inline_frees = registry.counter("sim.failures.inline_frees").value();
  const FailureDispatchResult want =
      check::reference_dispatch_with_failures(inst, p, r, priority, plan);
  const FailureDispatchResult& got = run.result;
  EXPECT_EQ(got.schedule.assignment.machine_of, want.schedule.assignment.machine_of);
  EXPECT_EQ(got.schedule.start, want.schedule.start);
  EXPECT_EQ(got.schedule.finish, want.schedule.finish);
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.refetches, want.refetches);
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

TEST(FailuresInlineFree, TwoMachinesFinishingTogetherQueueTheirFrees) {
  // t=0: m0 <- T0 (0-1), m1 <- T1 (0-3). t=1: m0 runs alone, so its free
  // is inline: T2 (1-3). t=3: T1's finish (pushed first) pops before
  // T2's; both frees queue, and the queue hands T3 to m0 by machine id.
  // An inline free would have handed it to m1.
  const Instance inst = Instance::from_estimates({1.0, 3.0, 2.0, 1.0, 2.0}, 2, 1.0);
  const TracedFailureRun run = run_against_reference(
      inst, Placement::everywhere(5, 2), exact_realization(inst), FailurePlan{});
  EXPECT_EQ(run.result.schedule.assignment[3], 0u);
  EXPECT_EQ(run.result.schedule.assignment[4], 1u);
  // Inline: m0's free at t=1 and at t=4 (T3 done, T4 still running).
  EXPECT_EQ(run.inline_frees, 2u);
}

TEST(FailuresInlineFree, FinishAtTheInstantOfAFailureQueuesItsFree) {
  // m0 finishes T0 at t=2 just as m1 fails and loses T1. The failure pops
  // before m0's queued free, so m0 restarts T1 (rank 1), not T2 (rank 2).
  const Instance inst = Instance::from_estimates({2.0, 5.0, 1.0}, 2, 1.0);
  FailurePlan plan;
  plan.failures = {{1, 2.0}};
  const TracedFailureRun run = run_against_reference(
      inst, Placement::everywhere(3, 2), exact_realization(inst), plan);
  EXPECT_EQ(run.result.restarts, 1u);
  EXPECT_EQ(run.result.schedule.assignment[1], 0u);
  EXPECT_DOUBLE_EQ(run.result.schedule.start[1], 2.0);
  EXPECT_DOUBLE_EQ(run.result.makespan, 8.0);
  EXPECT_EQ(run.inline_frees, 1u);  // T1's finish at 7 frees m0 for T2
}

TEST(FailuresInlineFree, ZeroLengthTasksMatchTheReference) {
  // Zero-length tasks finish at their start instant, ahead of the other
  // machines' pending frees there.
  const Instance inst = Instance::from_estimates({1.0, 1.0, 2.0, 1.0, 1.0}, 2, 1.0);
  Realization r;
  r.actual = {0.0, 0.0, 2.0, 1.0, 0.0};
  (void)run_against_reference(inst, Placement::everywhere(5, 2), r, FailurePlan{});
  const Instance one = Instance::from_estimates({1.0, 1.0, 1.0}, 1, 1.0);
  Realization chain;
  chain.actual = {0.0, 0.0, 1.0};
  // One machine: every free but the last task's is inline.
  EXPECT_EQ(run_against_reference(one, Placement::everywhere(3, 1), chain,
                                  FailurePlan{})
                .inline_frees,
            2u);
}

TEST(FailuresInlineFree, IntegerTimesMatchTheReference) {
  // Integer actuals and failure times make equal-time events the rule.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    WorkloadParams params;
    params.num_tasks = 40;
    params.num_machines = 5;
    params.alpha = 2.0;
    params.seed = seed;
    const Instance inst = uniform_workload(params);
    Realization r = realize(inst, NoiseModel::kUniform, seed + 100);
    for (Time& a : r.actual) a = std::max(Time{1}, std::round(a));
    std::vector<MachineId> group(40);
    for (TaskId j = 0; j < 40; ++j) group[j] = j % 5;
    FailurePlan plan;
    plan.failures = {{static_cast<MachineId>(seed % 5), static_cast<Time>(seed % 7)},
                     {static_cast<MachineId>((seed + 2) % 5), 10.0}};
    plan.refetch_penalty = 2.0;
    SCOPED_TRACE(seed);
    (void)run_against_reference(inst, Placement::everywhere(40, 5), r, plan);
    (void)run_against_reference(inst, Placement::singleton(group, 5), r, plan);
  }
}

TEST(FailuresInlineFree, TheLastTasksFreeIsNotCounted) {
  // Without failures and with distinct finish times every finish but the
  // last frees its machine once: m initial frees + n finishes + n - 1
  // frees, however many of those frees ran inline.
  WorkloadParams params;
  params.num_tasks = 200;
  params.num_machines = 7;
  params.seed = 4;
  const Instance inst = uniform_workload(params);
  const Realization r = realize(inst, NoiseModel::kUniform, 5);
  const TracedFailureRun run =
      run_against_reference(inst, Placement::everywhere(200, 7), r, FailurePlan{});
  EXPECT_EQ(run.result.events_processed, 7u + 2u * 200u - 1u);
  EXPECT_GT(run.inline_frees, 0u);

  const Instance three = Instance::from_estimates({1.0, 2.0, 3.0}, 1, 1.0);
  const TracedFailureRun serial = run_against_reference(
      three, Placement::everywhere(3, 1), exact_realization(three), FailurePlan{});
  EXPECT_EQ(serial.result.events_processed, 6u);  // free, 3 finishes, 2 frees
  EXPECT_EQ(serial.inline_frees, 2u);
}

}  // namespace
}  // namespace rdp
