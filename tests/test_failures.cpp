// Tests for the failure-aware dispatcher (fail-stop machines, restarts,
// data refetch).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"

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

}  // namespace
}  // namespace rdp
