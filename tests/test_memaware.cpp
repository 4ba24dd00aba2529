// Tests for the memory-aware model: pi schedules, the SBO split, and the
// four SABO/ABO theorems validated against exact optima.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bounds/memaware_bounds.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "exact/branch_and_bound.hpp"
#include "exp/memaware_experiment.hpp"
#include "memaware/abo.hpp"
#include "memaware/pi_schedules.hpp"
#include "memaware/sabo.hpp"
#include "memaware/sbo.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance mem_instance(std::uint64_t seed, std::size_t n = 14, MachineId m = 3,
                      double alpha = 1.5) {
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha;
  params.seed = seed;
  return independent_sizes_workload(params);
}

TEST(PiSchedules, Pi1OptimizesTimePi2OptimizesMemory) {
  const Instance inst = mem_instance(1);
  const PiSchedules pi = build_pi_schedules(inst);
  EXPECT_DOUBLE_EQ(pi.pi1_makespan, estimated_makespan(pi.pi1, inst));
  EXPECT_DOUBLE_EQ(pi.pi2_memory, max_memory(pi.pi2, inst));
  // pi1 is at least as good on time as pi2, and vice versa on memory.
  EXPECT_LE(pi.pi1_makespan, estimated_makespan(pi.pi2, inst) + 1e-9);
  EXPECT_LE(pi.pi2_memory, max_memory(pi.pi1, inst) + 1e-9);
  EXPECT_NEAR(pi.rho1, 4.0 / 3.0 - 1.0 / 9.0, 1e-12);
}

TEST(PiSchedules, EmptyInstanceRejected) {
  Instance empty({}, 2, 1.0);
  EXPECT_THROW((void)build_pi_schedules(empty), std::invalid_argument);
}

TEST(SboSplit, ThresholdClassification) {
  // Two tasks: one pure-time, one pure-memory; Delta = 1 separates them.
  Instance inst({{10.0, 0.1}, {0.5, 20.0}}, 2, 1.0);
  const PiSchedules pi = build_pi_schedules(inst);
  const auto in_s2 = split_memory_intensive(inst, pi, 1.0);
  EXPECT_FALSE(in_s2[0]);  // time intensive
  EXPECT_TRUE(in_s2[1]);   // memory intensive
}

TEST(SboSplit, DeltaZeroRejected) {
  const Instance inst = mem_instance(1);
  const PiSchedules pi = build_pi_schedules(inst);
  EXPECT_THROW((void)split_memory_intensive(inst, pi, 0.0), std::invalid_argument);
}

TEST(SboSplit, LargeDeltaSendsEverythingToS2) {
  const Instance inst = mem_instance(2);
  const PiSchedules pi = build_pi_schedules(inst);
  const auto in_s2 = split_memory_intensive(inst, pi, 1e9);
  for (bool b : in_s2) EXPECT_TRUE(b);
}

TEST(SboSplit, TinyDeltaSendsEverythingToS1) {
  const Instance inst = mem_instance(2);
  const PiSchedules pi = build_pi_schedules(inst);
  const auto in_s2 = split_memory_intensive(inst, pi, 1e-9);
  for (bool b : in_s2) EXPECT_FALSE(b);
}

TEST(Sbo, GuaranteesHoldUnderCertainTimes) {
  // SBO's own guarantee [(1+D) rho1 OPT_C, (1+1/D) rho2 OPT_M], certain
  // times (alpha plays no role in SBO itself).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Instance inst = mem_instance(seed, 12, 3, 1.0);
    for (double delta : {0.3, 1.0, 3.0}) {
      const SboResult r = run_sbo(inst, delta);
      const BnbResult opt_c = branch_and_bound_cmax(inst.estimates(), 3);
      const BnbResult opt_m = branch_and_bound_cmax(inst.sizes(), 3);
      ASSERT_TRUE(opt_c.proven && opt_m.proven);
      const BiObjectiveGuarantee g = sbo_guarantee(delta, r.pi.rho1, r.pi.rho2);
      EXPECT_LE(r.estimated_makespan, g.makespan * opt_c.best + 1e-9)
          << "seed=" << seed << " delta=" << delta;
      EXPECT_LE(r.max_memory, g.memory * opt_m.best + 1e-9)
          << "seed=" << seed << " delta=" << delta;
    }
  }
}

TEST(Sabo, PlacementIsSingleton) {
  const Instance inst = mem_instance(3);
  const SaboResult r = run_sabo(inst, 1.0);
  EXPECT_EQ(r.placement.max_replication_degree(), 1u);
  EXPECT_EQ(check_placement(inst, r.placement), "");
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    EXPECT_TRUE(r.placement.allows(j, r.assignment[j])) << "task " << j;
  }
}

TEST(Abo, PlacementReplicatesOnlyS1) {
  const Instance inst = mem_instance(3);
  const double delta = 1.0;
  const Placement p = run_abo(inst, exact_realization(inst), delta).placement;
  const SboResult sbo = run_sbo(inst, delta);
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    if (sbo.in_s2[j]) {
      EXPECT_EQ(p.replication_degree(j), 1u) << "task " << j;
    } else {
      EXPECT_EQ(p.replication_degree(j), inst.num_machines()) << "task " << j;
    }
  }
}

TEST(Abo, ScheduleFeasibleAndS2Pinned) {
  const Instance inst = mem_instance(4);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const AboResult r = run_abo(inst, actual, 1.0);
  EXPECT_TRUE(check::check_invariants(inst, r.placement, actual, r.schedule).empty());
  EXPECT_EQ(check_schedule(inst, actual, r.schedule, true), "");
  // Every S2 task runs on its pi2 machine.
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    if (r.in_s2[j]) {
      EXPECT_EQ(r.schedule.assignment[j], r.pi.pi2[j]);
    }
  }
}

TEST(Abo, MemoryCountsEveryReplica) {
  const Instance inst = mem_instance(5);
  const Realization actual = exact_realization(inst);
  const AboResult r = run_abo(inst, actual, 1.0);
  double s1_total = 0;
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    if (!r.in_s2[j]) s1_total += inst.size(j);
  }
  // Each machine carries at least all S1 replicas.
  EXPECT_GE(r.max_memory + 1e-9, s1_total);
}

struct MemTheoremCase {
  std::uint64_t seed;
  double alpha;
  double delta;
};

class SaboTheorems : public ::testing::TestWithParam<MemTheoremCase> {};

TEST_P(SaboTheorems, MakespanAndMemoryWithinBounds) {
  const auto [seed, alpha, delta] = GetParam();
  const Instance inst = mem_instance(seed, 12, 3, alpha);
  for (NoiseModel noise :
       {NoiseModel::kUniform, NoiseModel::kTwoPoint, NoiseModel::kAlwaysHigh}) {
    const Realization actual = realize(inst, noise, seed * 13 + 7);
    const MemAwareTrial trial = measure_sabo(inst, actual, delta);
    ASSERT_TRUE(trial.cmax_exact);
    ASSERT_TRUE(trial.mem_exact);
    EXPECT_LE(trial.makespan_ratio, trial.makespan_guarantee + 1e-9)
        << to_string(noise);
    EXPECT_LE(trial.memory_ratio, trial.memory_guarantee + 1e-9) << to_string(noise);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SaboTheorems,
    ::testing::Values(MemTheoremCase{1, 1.2, 0.5}, MemTheoremCase{2, 1.2, 1.0},
                      MemTheoremCase{3, 1.5, 0.5}, MemTheoremCase{4, 1.5, 2.0},
                      MemTheoremCase{5, 2.0, 1.0}, MemTheoremCase{6, 2.0, 3.0}));

class AboTheorems : public ::testing::TestWithParam<MemTheoremCase> {};

TEST_P(AboTheorems, MakespanAndMemoryWithinBounds) {
  const auto [seed, alpha, delta] = GetParam();
  const Instance inst = mem_instance(seed + 100, 12, 3, alpha);
  for (NoiseModel noise :
       {NoiseModel::kUniform, NoiseModel::kTwoPoint, NoiseModel::kAlwaysLow}) {
    const Realization actual = realize(inst, noise, seed * 31 + 3);
    const MemAwareTrial trial = measure_abo(inst, actual, delta);
    ASSERT_TRUE(trial.cmax_exact);
    ASSERT_TRUE(trial.mem_exact);
    EXPECT_LE(trial.makespan_ratio, trial.makespan_guarantee + 1e-9)
        << to_string(noise);
    EXPECT_LE(trial.memory_ratio, trial.memory_guarantee + 1e-9) << to_string(noise);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AboTheorems,
    ::testing::Values(MemTheoremCase{1, 1.2, 0.5}, MemTheoremCase{2, 1.2, 1.0},
                      MemTheoremCase{3, 1.5, 0.5}, MemTheoremCase{4, 1.5, 2.0},
                      MemTheoremCase{5, 2.0, 1.0}, MemTheoremCase{6, 2.0, 3.0}));

TEST(MemAwareTradeoff, DeltaMovesTheSplit) {
  // Growing Delta moves tasks from S1 (time) to S2 (memory): measured
  // memory is non-increasing in Delta for ABO (fewer replicated tasks).
  const Instance inst = mem_instance(9, 16, 4, 1.5);
  const Realization actual = exact_realization(inst);
  double prev_memory = 1e300;
  for (double delta : {0.1, 0.5, 1.0, 2.0, 8.0}) {
    const AboResult r = run_abo(inst, actual, delta);
    EXPECT_LE(r.max_memory, prev_memory + 1e-9) << "delta=" << delta;
    prev_memory = r.max_memory;
  }
}

TEST(MemAwareTradeoff, AbosReplicationHelpsMakespanOnAverage) {
  // ABO's online phase adapts to realized times; SABO's static plan
  // cannot. Pointwise either can win on a lucky draw, but over many
  // two-point realizations ABO's mean makespan must come out ahead.
  const Instance inst = mem_instance(11, 16, 4, 2.0);
  const double delta = 0.5;
  const SaboResult sabo = run_sabo(inst, delta);
  double abo_total = 0, sabo_total = 0;
  const int trials = 24;
  for (int t = 0; t < trials; ++t) {
    const Realization actual =
        realize(inst, NoiseModel::kTwoPoint, 21 + static_cast<std::uint64_t>(t));
    abo_total += run_abo(inst, actual, delta).makespan;
    sabo_total += sabo_makespan(sabo, inst, actual);
  }
  EXPECT_LT(abo_total / trials, sabo_total / trials);
}

}  // namespace
}  // namespace rdp
