// Tests for scenario-based robustness evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "algo/strategy.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exp/scenario.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance demo(std::uint64_t seed = 5) {
  WorkloadParams params;
  params.num_tasks = 12;
  params.num_machines = 3;
  params.alpha = 1.8;
  params.seed = seed;
  return uniform_workload(params, 1.0, 8.0);
}

TEST(Scenarios, GeneratedSetsRespectTheBand) {
  // Misreporting the declared alpha itself is no misreport: every draw
  // stays inside the band.
  const Instance inst = demo();
  const ScenarioSet set = make_misreported_scenarios(inst, 6, 1, inst.alpha());
  ASSERT_EQ(set.size(), 6u);
  for (const Realization& r : set.scenarios) {
    EXPECT_TRUE(respects_uncertainty(inst, r));
  }
}

TEST(Scenarios, MixedSetsCycleModels) {
  const Instance inst = demo();
  const ScenarioSet set = make_mixed_scenarios(inst, 10, 3);
  ASSERT_EQ(set.size(), 10u);
  for (const Realization& r : set.scenarios) {
    EXPECT_TRUE(respects_uncertainty(inst, r));
  }
}

TEST(Scenarios, DeterministicInSeed) {
  const Instance inst = demo();
  const ScenarioSet a = make_mixed_scenarios(inst, 4, 9);
  const ScenarioSet b = make_mixed_scenarios(inst, 4, 9);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(a.scenarios[s].actual, b.scenarios[s].actual);
  }
}

TEST(Scenarios, DriftingSetsWidenAcrossTheSweep) {
  const Instance inst = demo();
  const ScenarioSet set = make_drifting_scenarios(inst, 8, 2, 1.0, 3.0);
  ASSERT_EQ(set.size(), 8u);
  // Scenario 0 is drawn at alpha = 1 (factors exactly 1); the last is
  // drawn at alpha = 3 and may leave the instance's declared 1.8 band.
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    EXPECT_DOUBLE_EQ(set.scenarios.front()[j], inst.estimate(j));
  }
  double worst_factor = 1.0;
  for (const Realization& r : set.scenarios) {
    for (TaskId j = 0; j < inst.num_tasks(); ++j) {
      const double ratio = r[j] / inst.estimate(j);
      worst_factor = std::max({worst_factor, ratio, 1.0 / ratio});
      EXPECT_LE(std::max(ratio, 1.0 / ratio), 3.0 * (1.0 + 1e-12));
    }
  }
  EXPECT_GT(worst_factor, 1.8);  // the drift really leaves the declared band

  // Deterministic in the seed, and invalid endpoints are rejected.
  const ScenarioSet again = make_drifting_scenarios(inst, 8, 2, 1.0, 3.0);
  for (std::size_t s = 0; s < set.size(); ++s) {
    for (TaskId j = 0; j < inst.num_tasks(); ++j) {
      EXPECT_DOUBLE_EQ(set.scenarios[s][j], again.scenarios[s][j]);
    }
  }
  EXPECT_THROW((void)make_drifting_scenarios(inst, 4, 1, 0.5, 2.0),
               std::invalid_argument);
  EXPECT_THROW((void)make_drifting_scenarios(inst, 4, 1, 1.5, 0.9),
               std::invalid_argument);
}

TEST(Scenarios, MisreportedSetsDrawAtTheTrueAlpha) {
  const Instance inst = demo();  // declares alpha = 1.8
  const ScenarioSet set = make_misreported_scenarios(inst, 10, 4, 3.5);
  ASSERT_EQ(set.size(), 10u);
  double worst_factor = 1.0;
  for (const Realization& r : set.scenarios) {
    for (TaskId j = 0; j < inst.num_tasks(); ++j) {
      const double ratio = r[j] / inst.estimate(j);
      worst_factor = std::max({worst_factor, ratio, 1.0 / ratio});
      EXPECT_LE(std::max(ratio, 1.0 / ratio), 3.5 * (1.0 + 1e-12));
    }
  }
  // kAlwaysHigh is in the mixed rotation, so the true band is actually
  // exercised well past the declared one.
  EXPECT_GT(worst_factor, 1.8);
  EXPECT_THROW((void)make_misreported_scenarios(inst, 4, 1, 0.8),
               std::invalid_argument);
}

TEST(Evaluation, FieldsAreConsistent) {
  const Instance inst = demo();
  const ScenarioSet set = make_mixed_scenarios(inst, 8, 2);
  const ScenarioEvaluation eval =
      evaluate_scenarios(make_lpt_no_restriction(), inst, set);
  ASSERT_EQ(eval.makespans.size(), 8u);
  ASSERT_EQ(eval.optima.size(), 8u);
  Time worst = 0;
  double total = 0;
  for (Time c : eval.makespans) {
    worst = std::max(worst, c);
    total += c;
  }
  EXPECT_DOUBLE_EQ(eval.worst_makespan, worst);
  EXPECT_NEAR(eval.mean_makespan, total / 8.0, 1e-12);
  EXPECT_GE(eval.worst_ratio, 1.0 - 1e-9);
  EXPECT_GE(eval.worst_regret, -1e-9);
  EXPECT_GE(eval.cvar90_makespan, eval.mean_makespan - 1e-9);
  EXPECT_LE(eval.cvar90_makespan, eval.worst_makespan + 1e-9);
}

TEST(Evaluation, EmptySetRejected) {
  const Instance inst = demo();
  EXPECT_THROW(
      (void)evaluate_scenarios(make_lpt_no_choice(), inst, ScenarioSet{}),
      std::invalid_argument);
}

TEST(Evaluation, ReplicationImprovesWorstCaseAcrossScenarios) {
  const Instance inst = demo();
  const ScenarioSet set = make_mixed_scenarios(inst, 12, 4);
  const ScenarioEvaluation pinned =
      evaluate_scenarios(make_lpt_no_choice(), inst, set);
  const ScenarioEvaluation everywhere =
      evaluate_scenarios(make_lpt_no_restriction(), inst, set);
  EXPECT_LE(everywhere.worst_makespan, pinned.worst_makespan + 1e-9);
  EXPECT_LE(everywhere.worst_regret, pinned.worst_regret + 1e-9);
}

TEST(Selection, MinMaxPicksTheRobustStrategy) {
  const Instance inst = demo();
  const ScenarioSet set = make_mixed_scenarios(inst, 10, 6);
  std::vector<TwoPhaseStrategy> strategies;
  strategies.push_back(make_lpt_no_choice());
  strategies.push_back(make_ls_group(3));
  strategies.push_back(make_lpt_no_restriction());
  const std::size_t pick = select_min_max(strategies, inst, set);
  // The pick must be min-max optimal, and among worst-makespan ties it
  // must have the smallest worst regret (the documented tie-break).
  const ScenarioEvaluation chosen =
      evaluate_scenarios(strategies[pick], inst, set);
  for (const TwoPhaseStrategy& s : strategies) {
    const ScenarioEvaluation other = evaluate_scenarios(s, inst, set);
    EXPECT_LE(chosen.worst_makespan, other.worst_makespan + 1e-9);
    if (std::abs(chosen.worst_makespan - other.worst_makespan) <= 1e-9) {
      EXPECT_LE(chosen.worst_regret, other.worst_regret + 1e-9) << s.name();
    }
  }
}

TEST(Selection, EmptyStrategyListRejected) {
  const Instance inst = demo();
  const ScenarioSet set = make_mixed_scenarios(inst, 2, 1);
  EXPECT_THROW((void)select_min_max({}, inst, set), std::invalid_argument);
}

}  // namespace
}  // namespace rdp
