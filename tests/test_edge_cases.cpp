// Edge-case sweep across modules: branches not reached by the main
// suites (degenerate schedules, empty renders, serialization precision
// contract, validator diagnostics).
#include <gtest/gtest.h>

#include <cmath>

#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "core/validate.hpp"
#include "io/instance_io.hpp"
#include "sim/trace.hpp"

namespace rdp {
namespace {

TEST(EdgeCases, EmptyScheduleRenders) {
  Instance inst({}, 3, 1.0);
  Schedule empty;
  EXPECT_EQ(render_gantt(inst, empty), "(empty schedule)\n");
  EXPECT_EQ(render_trace(DispatchTrace{}), "");
}

TEST(EdgeCases, TinyGanttWidthDegradesGracefully) {
  Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  Schedule s;
  s.assignment = Assignment(1);
  s.assignment.machine_of = {0};
  s.start = {0.0};
  s.finish = {1.0};
  EXPECT_EQ(render_gantt(inst, s, /*width=*/4), "(empty schedule)\n");
  EXPECT_NE(render_gantt(inst, s, /*width=*/20).find("m0 |"), std::string::npos);
}

TEST(EdgeCases, ValidatorDiagnosticsAreSpecific) {
  Instance inst = Instance::from_estimates({2.0, 3.0}, 2, 1.5);
  const Placement p = Placement::singleton({0, 1}, 2);

  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(2);  // every task unassigned
  s.start = {0.0, 2.0};
  s.finish = {2.0, 5.0};
  const auto d1 = check::check_invariants(inst, p, r, s);
  ASSERT_FALSE(d1.empty());
  EXPECT_NE(d1.front().detail.find("unassigned"), std::string::npos);

  s.assignment.machine_of = {1, 1};
  const auto d2 = check::check_invariants(inst, p, r, s);
  ASSERT_FALSE(d2.empty());
  EXPECT_NE(d2.front().detail.find("no replica"), std::string::npos);

  const auto d3 = check::check_invariants(inst, p, Realization{{2.0}}, s);
  ASSERT_FALSE(d3.empty());
  EXPECT_NE(d3.front().detail.find("covers 1"), std::string::npos);

  EXPECT_FALSE(respects_uncertainty(inst, Realization{{100.0, 3.0}}));
}

TEST(EdgeCases, ScheduleValidatorCatchesNegativeStart) {
  Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  Schedule s;
  s.assignment = Assignment(1);
  s.assignment.machine_of = {0};
  s.start = {-0.5};
  s.finish = {0.5};
  EXPECT_NE(check_schedule(inst, exact_realization(inst), s).find("before time 0"),
            std::string::npos);
}

TEST(EdgeCases, ScheduleValidatorCatchesSizeMismatch) {
  Instance inst = Instance::from_estimates({1.0, 1.0}, 1, 1.0);
  Schedule s;  // empty arrays vs 2 tasks
  EXPECT_NE(check_schedule(inst, exact_realization(inst), s), "");
}

TEST(EdgeCases, SerializationPrecisionContract) {
  // The CSV dialect stores doubles at 12 significant digits: values
  // round-trip to within 1 part in 1e11 -- enough for all experiment
  // purposes but NOT bit-exact. This test pins that contract.
  const double gnarly = 1.0 + std::sqrt(2.0) * 1e-3;  // irrational digits
  Instance inst({{gnarly, gnarly}}, 2, 1.5);
  const Instance back = parse_instance(instance_to_string(inst));
  EXPECT_NEAR(back.estimate(0), gnarly, gnarly * 1e-11);
  EXPECT_NEAR(back.size(0), gnarly, gnarly * 1e-11);
}

TEST(EdgeCases, SingleTaskSingleMachineFullPipeline) {
  Instance inst = Instance::from_estimates({5.0}, 1, 2.0);
  const Placement p = Placement::everywhere(1, 1);
  const Realization r{{10.0}};  // at the alpha edge
  ASSERT_TRUE(respects_uncertainty(inst, r));
  const Schedule s = sequence_assignment(
      [&] {
        Assignment a(1);
        a.machine_of = {0};
        return a;
      }(),
      r, 1);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
  EXPECT_EQ(check_schedule(inst, r, s, true), "");
  EXPECT_DOUBLE_EQ(max_memory(p, inst), 1.0);
}

TEST(EdgeCases, ZeroSizeTasksAreLegalInMemoryModel) {
  Instance inst({{1.0, 0.0}, {2.0, 0.0}}, 2, 1.5);
  const Placement p = Placement::everywhere(2, 2);
  EXPECT_DOUBLE_EQ(max_memory(p, inst), 0.0);
}

TEST(EdgeCases, ImbalanceOfEmptyRealizationIsZero) {
  Instance inst({}, 4, 1.0);
  Assignment a(0);
  EXPECT_DOUBLE_EQ(imbalance(a, Realization{}, 4), 0.0);
}

}  // namespace
}  // namespace rdp
