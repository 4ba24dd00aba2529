// Cross-module integration tests: full pipelines exercising generation,
// placement, realization, dispatch, validation, serialization, and
// re-evaluation together -- the flows a downstream user would actually
// run.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "rdp.hpp"

namespace rdp {
namespace {

TEST(Integration, GeneratePlaceDispatchValidateSerializeReload) {
  // 1. Generate a memory-model workload.
  WorkloadParams params;
  params.num_tasks = 30;
  params.num_machines = 5;
  params.alpha = 1.6;
  params.seed = 77;
  const Instance inst = correlated_sizes_workload(params);

  // 2. Save and reload the instance; it must survive the round trip.
  const std::string path = ::testing::TempDir() + "/rdp_integration.csv";
  save_instance(path, inst);
  const Instance reloaded = load_instance(path);
  std::remove(path.c_str());
  ASSERT_EQ(reloaded.num_tasks(), inst.num_tasks());

  // 3. Run every paper strategy on the reloaded instance against a
  //    realization and validate each schedule end to end.
  const Realization actual = realize(reloaded, NoiseModel::kLogUniform, 5);
  ASSERT_EQ(check_realization(reloaded, actual), "");
  for (const TwoPhaseStrategy& s : paper_strategy_family(5)) {
    const StrategyResult result = s.run(reloaded, actual);
    EXPECT_EQ(check_assignment(reloaded, result.placement,
                               result.schedule.assignment),
              "")
        << s.name();
    EXPECT_EQ(check_schedule(reloaded, actual, result.schedule, true), "")
        << s.name();
    // 4. The measured ratio against the certified optimum respects the
    //    matching theorem bound.
    const CertifiedCmax opt = certified_cmax(actual.actual, 5);
    const double ratio = result.makespan / opt.lower;
    const double worst_bound = thm2_lpt_no_choice(reloaded.alpha(), 5);
    EXPECT_LE(ratio, worst_bound + 1e-9) << s.name();
  }
}

TEST(Integration, TraceToScheduleToSvgPipeline) {
  // Synthesize history -> trace -> calibrated workload -> schedule -> SVG.
  WorkloadParams params;
  params.num_tasks = 16;
  params.num_machines = 4;
  params.alpha = 1.4;
  params.seed = 21;
  const Instance source = uniform_workload(params);
  const Realization lived = realize(source, NoiseModel::kBetaCentered, 22);

  const Trace trace = make_synthetic_trace(source, lived);
  const ReplayableWorkload workload = workload_from_trace(trace, 4);
  EXPECT_LE(workload.instance.alpha(), 1.4 + 1e-9);

  const StrategyResult result =
      make_lpt_no_restriction().run(workload.instance, workload.actual);
  const std::string svg = render_svg(workload.instance, result.schedule);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);

  const ScheduleStats stats =
      compute_schedule_stats(workload.instance, result.schedule);
  EXPECT_GT(stats.mean_utilization, 0.5);
  EXPECT_NEAR(stats.makespan, result.makespan, 1e-12);
}

TEST(Integration, MemoryAwarePipelineRespectsBothBudgets) {
  WorkloadParams params;
  params.num_tasks = 12;
  params.num_machines = 3;
  params.alpha = 1.5;
  params.seed = 31;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, 32);

  for (double delta : {0.5, 2.0}) {
    const MemAwareTrial sabo = measure_sabo(inst, actual, delta);
    const MemAwareTrial abo = measure_abo(inst, actual, delta);
    EXPECT_LE(sabo.makespan_ratio, sabo.makespan_guarantee + 1e-9);
    EXPECT_LE(sabo.memory_ratio, sabo.memory_guarantee + 1e-9);
    EXPECT_LE(abo.makespan_ratio, abo.makespan_guarantee + 1e-9);
    EXPECT_LE(abo.memory_ratio, abo.memory_guarantee + 1e-9);
    // The structural tradeoff: ABO uses at least as much memory, SABO is
    // static so ABO adapts at least as well in expectation -- here just
    // assert the memory ordering, which is deterministic.
    EXPECT_GE(abo.memory + 1e-9, sabo.memory);
  }
}

TEST(Integration, SolverStackAgreesOnSharedInstances) {
  // All four solvers on one instance: LB <= exact == (DP for m=2)
  // <= MULTIFIT <= LPT, and the Hochbaum-Shmoys bracket within its
  // guarantee around the optimum.
  Xoshiro256 rng(3);
  std::vector<Time> p;
  for (int j = 0; j < 14; ++j) {
    p.push_back(static_cast<Time>(1 + rng.next_below(30)));
  }
  const MachineId m = 2;
  const Time lb = makespan_lower_bound(p, m);
  const BnbResult exact = branch_and_bound_cmax(p, m);
  const PartitionResult dp = partition_cmax(p, 1.0);
  const MultifitResult mf = multifit_cmax(p, m);
  const GreedyScheduleResult lpt = lpt_schedule(p, m);
  const CertifiedCmax hs = hs_certified_cmax(p, m, 3);

  ASSERT_TRUE(exact.proven);
  EXPECT_LE(lb, exact.best + 1e-9);
  EXPECT_NEAR(dp.makespan, exact.best, 1e-9);
  EXPECT_GE(mf.makespan + 1e-9, exact.best);
  EXPECT_GE(lpt.makespan + 1e-9, mf.makespan - 1e-9);
  EXPECT_LE(hs.lower, exact.best + 1e-9);
  EXPECT_GE(hs.upper + 1e-9, exact.best);
  EXPECT_LE(hs.upper, hs_guarantee(3) * exact.best + 1e-6);

  const CertifiedCmax certified = certified_cmax(p, m);
  EXPECT_TRUE(certified.exact);
  EXPECT_NEAR(certified.lower, exact.best, 1e-9);
}

TEST(Integration, FailureAndTransferDispatchersShareSemantics) {
  // With no failures and infinite bandwidth, all three dispatchers agree
  // on a fully replicated placement.
  Instance inst = Instance::from_estimates({5.0, 4.0, 3.0, 2.0, 1.0, 1.0}, 3, 1.0);
  const Placement p = Placement::everywhere(6, 3);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);

  const DispatchResult plain = dispatch_online(inst, p, r, priority);
  const FailureDispatchResult no_failures =
      dispatch_with_failures(inst, p, r, priority, FailurePlan{});
  TransferModel fast;
  fast.bandwidth = 1e12;
  const TransferDispatchResult transfers =
      dispatch_with_transfers(inst, p, r, priority, fast);

  EXPECT_DOUBLE_EQ(no_failures.makespan, plain.schedule.makespan());
  EXPECT_DOUBLE_EQ(transfers.makespan, plain.schedule.makespan());
}

TEST(Integration, ScenarioReportPipeline) {
  WorkloadParams params;
  params.num_tasks = 10;
  params.num_machines = 2;
  params.alpha = 1.5;
  params.seed = 41;
  const Instance inst = uniform_workload(params);
  const ScenarioSet set = make_mixed_scenarios(inst, 6, 42);

  ExperimentReport report("integration", "scenario sweep");
  Series& series = report.series("worst", {"strategy_index", "worst_makespan"});
  std::vector<TwoPhaseStrategy> strategies = paper_strategy_family(2);
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const ScenarioEvaluation eval = evaluate_scenarios(strategies[s], inst, set);
    series.add_row({static_cast<double>(s), eval.worst_makespan});
  }
  EXPECT_EQ(series.size(), strategies.size());
  EXPECT_NE(report.to_json().find("worst_makespan"), std::string::npos);
}

}  // namespace
}  // namespace rdp
