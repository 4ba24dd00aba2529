// Unit tests for core/schedule.hpp, core/metrics.hpp, and the schedule
// validators.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"

namespace rdp {
namespace {

Instance make_inst() {
  return Instance({{2.0, 1.0}, {3.0, 4.0}, {1.0, 2.0}, {4.0, 1.0}}, 2, 1.5);
}

TEST(Assignment, CompletenessTracksSentinel) {
  Assignment a(2);
  EXPECT_FALSE(a.complete());
  a.machine_of = {0, 1};
  EXPECT_TRUE(a.complete());
}

TEST(Assignment, TasksPerMachineGroups) {
  Assignment a(4);
  a.machine_of = {0, 1, 0, 1};
  const auto groups = a.tasks_per_machine(2);
  EXPECT_EQ(groups[0], (std::vector<TaskId>{0, 2}));
  EXPECT_EQ(groups[1], (std::vector<TaskId>{1, 3}));
}

TEST(Assignment, TasksPerMachineRejectsOutOfRange) {
  Assignment a(1);
  a.machine_of = {5};
  EXPECT_THROW(a.tasks_per_machine(2), std::out_of_range);
}

TEST(Schedule, MakespanIsMaxFinish) {
  Schedule s;
  s.assignment = Assignment(2);
  s.start = {0.0, 1.0};
  s.finish = {2.0, 7.5};
  EXPECT_DOUBLE_EQ(s.makespan(), 7.5);
}

TEST(SequenceAssignment, BackToBackPerMachine) {
  const Instance inst = make_inst();
  Assignment a(4);
  a.machine_of = {0, 0, 1, 1};
  const Realization r = exact_realization(inst);
  const Schedule s = sequence_assignment(a, r, 2);
  EXPECT_DOUBLE_EQ(s.start[0], 0.0);
  EXPECT_DOUBLE_EQ(s.finish[0], 2.0);
  EXPECT_DOUBLE_EQ(s.start[1], 2.0);
  EXPECT_DOUBLE_EQ(s.finish[1], 5.0);
  EXPECT_DOUBLE_EQ(s.start[2], 0.0);
  EXPECT_DOUBLE_EQ(s.start[3], 1.0);
  EXPECT_DOUBLE_EQ(s.makespan(), 5.0);
  EXPECT_EQ(check_schedule(inst, r, s, /*require_no_idle=*/true), "");
}

TEST(SequenceAssignment, RejectsIncompleteAssignment) {
  const Instance inst = make_inst();
  Assignment a(4);  // all kNoMachine
  EXPECT_THROW(sequence_assignment(a, exact_realization(inst), 2),
               std::invalid_argument);
}

TEST(Metrics, MachineLoadsAndMakespan) {
  const Instance inst = make_inst();
  Assignment a(4);
  a.machine_of = {0, 1, 0, 1};
  const Realization r = exact_realization(inst);
  const auto loads = machine_loads(a, r, 2);
  EXPECT_DOUBLE_EQ(loads[0], 3.0);   // 2 + 1
  EXPECT_DOUBLE_EQ(loads[1], 7.0);   // 3 + 4
  EXPECT_DOUBLE_EQ(makespan(a, r, 2), 7.0);
}

TEST(Metrics, EstimatedVsActualLoads) {
  const Instance inst = make_inst();
  Assignment a(4);
  a.machine_of = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(estimated_makespan(a, inst), 5.0);
  Realization r{{3.0, 4.5, 0.7, 6.0}};  // all within alpha=1.5 band
  ASSERT_TRUE(respects_uncertainty(inst, r));
  EXPECT_DOUBLE_EQ(makespan(a, r, 2), 7.5);
}

TEST(Metrics, MemoryOfPlacementCountsAllReplicas) {
  const Instance inst = make_inst();  // sizes 1,4,2,1
  const Placement everywhere = Placement::everywhere(4, 2);
  const auto mem = memory_per_machine(everywhere, inst);
  EXPECT_DOUBLE_EQ(mem[0], 8.0);
  EXPECT_DOUBLE_EQ(mem[1], 8.0);
  EXPECT_DOUBLE_EQ(max_memory(everywhere, inst), 8.0);
}

TEST(Metrics, MemoryOfAssignmentCountsOnlyExecutionCopies) {
  const Instance inst = make_inst();
  Assignment a(4);
  a.machine_of = {0, 1, 0, 1};
  EXPECT_DOUBLE_EQ(max_memory(a, inst), 5.0);  // machine 1: 4 + 1
}

TEST(Metrics, ImbalancePerfectlyBalanced) {
  Instance inst = Instance::from_estimates({2.0, 2.0}, 2, 1.0);
  Assignment a(2);
  a.machine_of = {0, 1};
  EXPECT_DOUBLE_EQ(imbalance(a, exact_realization(inst), 2), 1.0);
}

TEST(Metrics, IncompleteAssignmentThrows) {
  const Instance inst = make_inst();
  Assignment a(4);
  EXPECT_THROW((void)makespan(a, exact_realization(inst), 2), std::invalid_argument);
}

TEST(ScheduleValidation, DetectsOverlap) {
  Instance inst = Instance::from_estimates({2.0, 2.0}, 1, 1.0);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 0};
  s.start = {0.0, 1.0};  // overlaps task 0 ([0,2))
  s.finish = {2.0, 3.0};
  EXPECT_NE(check_schedule(inst, r, s), "");
}

TEST(ScheduleValidation, DetectsWrongDuration) {
  Instance inst = Instance::from_estimates({2.0}, 1, 1.0);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(1);
  s.assignment.machine_of = {0};
  s.start = {0.0};
  s.finish = {1.0};  // should be 2.0
  EXPECT_NE(check_schedule(inst, r, s), "");
}

TEST(ScheduleValidation, NoIdleFlagDetectsGaps) {
  Instance inst = Instance::from_estimates({1.0, 1.0}, 1, 1.0);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 0};
  s.start = {0.0, 5.0};  // a gap, but no overlap
  s.finish = {1.0, 6.0};
  EXPECT_EQ(check_schedule(inst, r, s, /*require_no_idle=*/false), "");
  EXPECT_NE(check_schedule(inst, r, s, /*require_no_idle=*/true), "");
}

TEST(AssignmentValidation, RespectsPlacement) {
  const Instance inst = make_inst();
  const Placement p = Placement::singleton({0, 0, 1, 1}, 2);
  const Realization r = exact_realization(inst);
  Assignment good(4);
  good.machine_of = {0, 0, 1, 1};
  EXPECT_TRUE(check::check_invariants(inst, p, r, sequence_assignment(good, r, 2)).empty());
  Assignment bad(4);
  bad.machine_of = {1, 0, 1, 1};  // task 0 not replicated on machine 1
  const auto violations = check::check_invariants(inst, p, r, sequence_assignment(bad, r, 2));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().invariant, "placement");
}

}  // namespace
}  // namespace rdp
