// Tests for the phase-1 placement policies and the two-phase strategy
// wrappers: shape of the placements, feasibility of the runs, and the
// documented replication degrees.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "algo/placement_policies.hpp"
#include "algo/strategy.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance demo_instance(MachineId m = 6, double alpha = 1.5) {
  WorkloadParams params;
  params.num_tasks = 40;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = 5;
  return uniform_workload(params);
}

TEST(LptNoChoicePlacement, SingletonAndBalanced) {
  const Instance inst = demo_instance();
  const Placement p = LptNoChoicePlacement().place(inst);
  EXPECT_EQ(check_placement(inst, p), "");
  EXPECT_EQ(p.max_replication_degree(), 1u);
  // LPT balance: estimated loads differ by at most the largest estimate.
  std::vector<Time> loads(inst.num_machines(), 0);
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    loads[p.machines_for(j).front()] += inst.estimate(j);
  }
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  EXPECT_LE(*hi - *lo, inst.max_estimate() + 1e-9);
}

TEST(ReplicateEverywherePlacement, FullDegree) {
  const Instance inst = demo_instance();
  const Placement p = ReplicateEverywherePlacement().place(inst);
  EXPECT_EQ(p.max_replication_degree(), 6u);
  EXPECT_EQ(p.total_replicas(), 40u * 6u);
}

TEST(LsGroupPlacement, DegreeIsMOverK) {
  const Instance inst = demo_instance(6);
  for (MachineId k : {1u, 2u, 3u, 6u}) {
    const Placement p = LsGroupPlacement(k).place(inst);
    EXPECT_EQ(p.max_replication_degree(), static_cast<std::size_t>(6 / k))
        << "k=" << k;
    EXPECT_EQ(check_placement(inst, p), "");
  }
}

TEST(LsGroupPlacement, RejectsNonDivisorK) {
  const Instance inst = demo_instance(6);
  EXPECT_THROW((void)LsGroupPlacement(4).place(inst), std::invalid_argument);
  EXPECT_THROW(LsGroupPlacement(0), std::invalid_argument);
}

TEST(LsGroupPlacement, GroupLoadsBalancedWithinLargestTask) {
  const Instance inst = demo_instance(6);
  const MachineId k = 3;
  const Placement p = LsGroupPlacement(k).place(inst);
  std::vector<Time> group_load(k, 0);
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    const MachineId group = p.machines_for(j).front() / (6 / k);
    group_load[group] += inst.estimate(j);
  }
  const auto [lo, hi] = std::minmax_element(group_load.begin(), group_load.end());
  EXPECT_LE(*hi - *lo, inst.max_estimate() + 1e-9);
}

TEST(LptGroupPlacement, SameShapeAsLsGroup) {
  const Instance inst = demo_instance(6);
  const Placement p = LptGroupPlacement(2).place(inst);
  EXPECT_EQ(p.max_replication_degree(), 3u);
  EXPECT_EQ(check_placement(inst, p), "");
}

TEST(RandomAndRoundRobinPlacements, SingletonAndDeterministic) {
  const Instance inst = demo_instance();
  const Placement r1 = RandomSingletonPlacement(77).place(inst);
  const Placement r2 = RandomSingletonPlacement(77).place(inst);
  EXPECT_EQ(r1.max_replication_degree(), 1u);
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    EXPECT_EQ(r1.machines_for(j), r2.machines_for(j));
  }
  const Placement rr = RoundRobinPlacement().place(inst);
  EXPECT_EQ(rr.machines_for(0).front(), 0u);
  EXPECT_EQ(rr.machines_for(7).front(), 1u);  // 7 mod 6
}

TEST(MultifitNoChoice, SingletonAndTighterPlannedMakespan) {
  const Instance inst = demo_instance();
  const Placement p = MultifitNoChoicePlacement().place(inst);
  EXPECT_EQ(p.max_replication_degree(), 1u);
  EXPECT_EQ(check_placement(inst, p), "");
  // MULTIFIT's planned (estimated) makespan never exceeds LPT's.
  auto planned = [&](const Placement& placement) {
    std::vector<Time> loads(inst.num_machines(), 0);
    for (TaskId j = 0; j < inst.num_tasks(); ++j) {
      loads[placement.machines_for(j).front()] += inst.estimate(j);
    }
    return *std::max_element(loads.begin(), loads.end());
  };
  const Placement lpt = LptNoChoicePlacement().place(inst);
  EXPECT_LE(planned(p), planned(lpt) + 1e-9);
}

TEST(MultifitNoChoice, RunsUnderUncertaintyWithinThm2StyleBehaviour) {
  // No theorem covers MULTIFIT-NoChoice, but it should behave like the
  // other static strategy in practice: feasible schedules, ratio >= 1.
  const Instance inst = demo_instance();
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 12);
  const StrategyResult r = make_multifit_no_choice().run(inst, actual);
  EXPECT_TRUE(check::check_invariants(inst, r.placement, actual, r.schedule).empty());
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(r.max_replication, 1u);
}

TEST(Strategy, NamesMatchPaper) {
  EXPECT_EQ(make_lpt_no_choice().name(), "LPT-NoChoice");
  EXPECT_EQ(make_lpt_no_restriction().name(), "LPT-NoRestriction");
  EXPECT_EQ(make_ls_group(3).name(), "LS-Group(k=3)");
}

TEST(Strategy, RunProducesFeasibleTimedSchedule) {
  const Instance inst = demo_instance();
  const Realization actual = realize(inst, NoiseModel::kUniform, 42);
  for (const TwoPhaseStrategy& s :
       {make_lpt_no_choice(), make_lpt_no_restriction(), make_ls_group(2),
        make_ls_group(3), make_lpt_group(2), make_ls_no_restriction()}) {
    const StrategyResult result = s.run(inst, actual);
    EXPECT_TRUE(
        check::check_invariants(inst, result.placement, actual, result.schedule).empty())
        << s.name();
    EXPECT_EQ(check_schedule(inst, actual, result.schedule, true), "") << s.name();
    EXPECT_DOUBLE_EQ(result.makespan, result.schedule.makespan()) << s.name();
    EXPECT_GT(result.makespan, 0.0) << s.name();
  }
}

TEST(Strategy, MemoryAccountingMatchesReplicationDegree) {
  const Instance inst = demo_instance();
  const StrategyResult no_choice =
      make_lpt_no_choice().run(inst, exact_realization(inst));
  const StrategyResult everywhere =
      make_lpt_no_restriction().run(inst, exact_realization(inst));
  // Unit sizes: Mem_max of replicate-everywhere is n; of no-choice it is
  // the largest machine's task count <= n.
  EXPECT_DOUBLE_EQ(everywhere.max_memory, static_cast<double>(inst.num_tasks()));
  EXPECT_LT(no_choice.max_memory, everywhere.max_memory);
  EXPECT_EQ(no_choice.max_replication, 1u);
  EXPECT_EQ(everywhere.max_replication, 6u);
}

TEST(Strategy, PaperFamilyCoversAllDivisors) {
  const auto family = paper_strategy_family(6);
  // LPT-NoChoice + LS-Group for k in {6,3,2} + LPT-NoRestriction.
  ASSERT_EQ(family.size(), 5u);
  EXPECT_EQ(family.front().name(), "LPT-NoChoice");
  EXPECT_EQ(family.back().name(), "LPT-NoRestriction");
  std::set<std::string> names;
  for (const auto& s : family) names.insert(s.name());
  EXPECT_TRUE(names.count("LS-Group(k=2)"));
  EXPECT_TRUE(names.count("LS-Group(k=3)"));
  EXPECT_TRUE(names.count("LS-Group(k=6)"));
}

TEST(Strategy, NoRestrictionNeverIdlesWhileWorkRemains) {
  const Instance inst = demo_instance(4);
  const Realization actual = realize(inst, NoiseModel::kTwoPoint, 3);
  const StrategyResult r = make_lpt_no_restriction().run(inst, actual);
  // Full replication: no machine may idle before the last dispatch.
  Time last_dispatch = 0;
  for (const auto& e : r.trace.events) last_dispatch = std::max(last_dispatch, e.when);
  const auto loads = machine_loads(r.schedule.assignment, actual, 4);
  for (Time l : loads) EXPECT_GE(l + 1e-9, last_dispatch == 0 ? 0 : 1e-12);
  // Stronger check: every machine's finish time >= the second-to-last
  // dispatch time (LS invariant: a machine only idles when nothing is
  // waiting).
  const Time longest = *std::max_element(actual.actual.begin(), actual.actual.end());
  for (Time l : loads) {
    EXPECT_GE(l, last_dispatch - longest - 1e-9);
  }
}

// Property: with alpha = 1 (no uncertainty) and exact realization,
// LPT-NoChoice and LPT-NoRestriction produce identical makespans.
class CertainTimesEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertainTimesEquivalence, NoChoiceEqualsNoRestriction) {
  WorkloadParams params;
  params.num_tasks = 30;
  params.num_machines = 5;
  params.alpha = 1.0;
  params.seed = GetParam();
  const Instance inst = uniform_workload(params);
  const Realization actual = exact_realization(inst);
  const StrategyResult a = make_lpt_no_choice().run(inst, actual);
  const StrategyResult b = make_lpt_no_restriction().run(inst, actual);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CertainTimesEquivalence,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace rdp
