#include "repro/registry.hpp"

#include <cmath>
#include <sstream>

#include "algo/strategy.hpp"
#include "bounds/memaware_bounds.hpp"
#include "bounds/replication_bounds.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "exact/branch_and_bound.hpp"
#include "exp/memaware_experiment.hpp"
#include "exp/ratio_experiment.hpp"
#include "io/svg.hpp"
#include "io/table.hpp"
#include "memaware/abo.hpp"
#include "memaware/sabo.hpp"
#include "perturb/adversary.hpp"
#include "perturb/stochastic.hpp"
#include "workload/generators.hpp"

namespace rdp::repro {

namespace {

RatioExperimentConfig ratio_config(const ArtifactContext& ctx) {
  RatioExperimentConfig config;
  config.exact_node_budget = ctx.node_budget;
  config.engine = ctx.engine;
  config.pool = ctx.pool;
  return config;
}

MemAwareConfig memaware_config(const ArtifactContext& ctx) {
  MemAwareConfig config;
  config.exact_node_budget = ctx.node_budget;
  config.engine = ctx.engine;
  return config;
}

/// Worst measured ratio across the placement-aware adversary and
/// stochastic trials of each listed noise model (the validation protocol
/// shared by Table 1 and the per-theorem sweeps).
double worst_measured_ratio(const TwoPhaseStrategy& strategy, const Instance& inst,
                            std::size_t trials, std::uint64_t seed,
                            const std::vector<NoiseModel>& noises,
                            const ArtifactContext& ctx) {
  const RatioExperimentConfig config = ratio_config(ctx);
  double worst = measure_adversarial_ratio(strategy, inst, config).ratio;
  for (NoiseModel noise : noises) {
    const RatioAggregate agg =
        measure_ratio_batch(strategy, inst, noise, trials, seed, config);
    worst = std::max(worst, agg.worst.ratio);
  }
  return worst;
}

std::string alpha_tag(double alpha) { return "alpha=" + fmt(alpha, 2); }

// -------------------------------------------------------------------
// Table 1: guarantee formulas vs. worst measured ratios.

ArtifactResult run_table1(const ArtifactContext& ctx) {
  constexpr MachineId kM = 8;
  constexpr std::size_t kN = 24;
  constexpr std::size_t kTrials = 5;
  const std::vector<double> alphas = {1.1, 1.5, 2.0};
  const std::vector<NoiseModel> noises = {NoiseModel::kUniform,
                                          NoiseModel::kTwoPoint};

  ArtifactResult result{
      ExperimentReport("table1-summary",
                       "Table 1: replication-bound guarantees vs. measured"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("trials", static_cast<double>(kTrials));
  Series& series = result.report.series(
      "table1", {"alpha", "replication", "guarantee", "measured"});

  std::ostringstream md;
  for (double alpha : alphas) {
    WorkloadParams params;
    params.num_tasks = kN;
    params.num_machines = kM;
    params.alpha = alpha;
    params.seed = ctx.seed + 6;
    const Instance inst = uniform_workload(params, 1.0, 10.0);

    struct Row {
      MachineId replication;
      double guarantee;
      TwoPhaseStrategy strategy;
      std::string theorem;
    };
    std::vector<Row> rows;
    rows.push_back({1, thm2_lpt_no_choice(alpha, kM), make_lpt_no_choice(),
                    "Theorem 2"});
    for (MachineId k : {kM / 2, kM / 4}) {
      rows.push_back({kM / k, thm4_ls_group(alpha, kM, k), make_ls_group(k),
                      "Theorem 4"});
    }
    rows.push_back({kM, thm3_lpt_no_restriction(alpha, kM),
                    make_lpt_no_restriction(), "Theorem 3"});

    TextTable table({"replication", "algorithm", "guarantee", "measured", "source"});
    for (const Row& row : rows) {
      const double measured = worst_measured_ratio(row.strategy, inst, kTrials,
                                                   ctx.seed + 100, noises, ctx);
      table.add_row({"|M_j|=" + std::to_string(row.replication),
                     row.strategy.name(), fmt(row.guarantee), fmt(measured),
                     row.theorem});
      series.add_row({alpha, static_cast<double>(row.replication), row.guarantee,
                      measured});
      result.checks.push_back({row.theorem + ": " + row.strategy.name() + ", " +
                                   alpha_tag(alpha),
                               measured, row.guarantee,
                               TheoremCheck::Kind::kUpperBound, 1e-9});
    }
    md << "**alpha = " << fmt(alpha, 2) << "** (m=" << kM << ", n=" << kN
       << ", worst over the placement-aware adversary and " << kTrials
       << " trials of uniform/two-point noise, certified optima):\n\n"
       << table.render_markdown() << "\n";
  }
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Table 2: memory-aware bi-objective guarantees vs. one realization.

ArtifactResult run_table2(const ArtifactContext& ctx) {
  constexpr MachineId kM = 5;
  constexpr std::size_t kN = 14;
  constexpr double kAlpha = 1.5;
  const std::vector<double> deltas = {0.1, 0.5, 2.0, 8.0};

  ArtifactResult result{
      ExperimentReport("table2-memaware",
                       "Table 2: SABO/ABO bi-objective guarantees vs. measured"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("alpha", kAlpha);
  Series& series = result.report.series(
      "table2", {"is_abo", "delta", "makespan_guarantee", "makespan_measured",
                 "memory_guarantee", "memory_measured"});

  WorkloadParams params;
  params.num_tasks = kN;
  params.num_machines = kM;
  params.alpha = kAlpha;
  params.seed = ctx.seed + 10;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, ctx.seed + 98);
  const MemAwareConfig config = memaware_config(ctx);

  TextTable table({"algorithm", "Delta", "makespan guar.", "measured",
                   "memory guar.", "measured"});
  const auto add = [&](const char* algo, bool is_abo, const MemAwareTrial& trial) {
    table.add_row({algo, fmt(trial.delta, 2), fmt(trial.makespan_guarantee),
                   fmt(trial.makespan_ratio), fmt(trial.memory_guarantee),
                   fmt(trial.memory_ratio)});
    series.add_row({is_abo ? 1.0 : 0.0, trial.delta, trial.makespan_guarantee,
                    trial.makespan_ratio, trial.memory_guarantee,
                    trial.memory_ratio});
    const std::string suffix =
        std::string(algo) + ", Delta=" + fmt(trial.delta, 2);
    result.checks.push_back({"makespan guarantee: " + suffix, trial.makespan_ratio,
                             trial.makespan_guarantee,
                             TheoremCheck::Kind::kUpperBound, 1e-9});
    result.checks.push_back({"memory guarantee: " + suffix, trial.memory_ratio,
                             trial.memory_guarantee,
                             TheoremCheck::Kind::kUpperBound, 1e-9});
  };
  for (double delta : deltas) add("SABO", false, measure_sabo(inst, actual, delta, config));
  for (double delta : deltas) add("ABO", true, measure_abo(inst, actual, delta, config));

  std::ostringstream md;
  md << "One uniform-noise realization of an independent-sizes workload (m=" << kM
     << ", n=" << kN << ", alpha=" << fmt(kAlpha, 1)
     << "); ratios against certified optima:\n\n"
     << table.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Figure 1: the Theorem 1 adversary construction.

ArtifactResult run_fig1(const ArtifactContext&) {
  constexpr MachineId kM = 6;
  constexpr double kAlpha = 2.0;
  constexpr std::size_t kLambdaIllustration = 3;
  constexpr std::size_t kSweepMax = 64;

  ArtifactResult result{
      ExperimentReport("fig1-adversary",
                       "Figure 1: Theorem 1 adversary, ratio converging to the "
                       "lower bound"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("alpha", kAlpha);
  Series& series = result.report.series(
      "sweep", {"lambda", "online_cmax", "opt_upper", "ratio", "thm1_bound"});

  const TwoPhaseStrategy strategy = make_lpt_no_choice();
  const double bound = thm1_no_replication_lower_bound(kAlpha, kM);

  // Illustration schedule (the paper's drawn instance).
  const Instance inst = thm1_instance(kLambdaIllustration, kM, kAlpha);
  const Placement placement = strategy.place(inst);
  const Realization worst = thm1_realization(inst, placement);
  const StrategyResult online = strategy.run(inst, worst);
  result.extra_files.push_back(
      {"fig1-adversary.svg", render_svg(inst, online.schedule)});

  TextTable table({"lambda", "online C_max", "OPT upper", "ratio", "Thm 1 bound"});
  double final_ratio = 0;
  for (std::size_t l = 1; l <= kSweepMax; l *= 2) {
    const Instance sweep_inst = thm1_instance(l, kM, kAlpha);
    const Placement sweep_placement = strategy.place(sweep_inst);
    const Realization sweep_worst = thm1_realization(sweep_inst, sweep_placement);
    const StrategyResult run = strategy.run(sweep_inst, sweep_worst);
    const Time opt_upper = thm1_offline_optimal_upper(l, kM, kAlpha, l);
    final_ratio = run.makespan / opt_upper;
    table.add_row({std::to_string(l), fmt(run.makespan, 2), fmt(opt_upper, 2),
                   fmt(final_ratio), fmt(bound)});
    series.add_row({static_cast<double>(l), run.makespan, opt_upper, final_ratio,
                    bound});
  }

  result.checks.push_back({"Thm 1 soundness: adversary ratio <= bound",
                           final_ratio, bound, TheoremCheck::Kind::kUpperBound,
                           1e-6});
  result.checks.push_back({"Thm 1 tightness: adversary ratio >= 0.9 x bound "
                           "(lambda=64)",
                           final_ratio, bound, TheoremCheck::Kind::kLowerBound,
                           0.1});

  std::ostringstream md;
  md << "The adversary slows every task of the most loaded machine by alpha and "
        "speeds the rest up by 1/alpha; the online/OPT ratio approaches the "
        "Theorem 1 lower bound from below as lambda grows.\n\n"
     << "![Figure 1: online schedule after the adversary move](" << kArtifactsToken
     << "/fig1-adversary/fig1-adversary.svg)\n\n"
     << table.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Figure 2: the group-replication construction.

ArtifactResult run_fig2(const ArtifactContext& ctx) {
  constexpr MachineId kM = 6;
  constexpr MachineId kK = 2;
  constexpr std::size_t kN = 10;
  constexpr double kAlpha = 1.5;

  ArtifactResult result{
      ExperimentReport("fig2-groups",
                       "Figure 2: two-phase replication in machine groups"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("k", static_cast<double>(kK));
  result.report.set_param("n", static_cast<double>(kN));

  WorkloadParams params;
  params.num_tasks = kN;
  params.num_machines = kM;
  params.alpha = kAlpha;
  params.seed = ctx.seed + 2;
  const Instance inst = uniform_workload(params, 1.0, 9.0);

  const TwoPhaseStrategy strategy = make_ls_group(kK);
  const Placement placement = strategy.place(inst);
  TextTable phase1({"task", "estimate", "replica machines"});
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    std::string machines;
    for (MachineId i : placement.machines_for(j)) {
      machines += (machines.empty() ? "" : ",") + std::to_string(i);
    }
    phase1.add_row({std::to_string(j), fmt(inst.estimate(j), 2), machines});
  }

  const Realization actual = realize(inst, NoiseModel::kUniform, ctx.seed + 3);
  const StrategyResult run = strategy.run(inst, actual);
  result.extra_files.push_back({"fig2-groups.svg", render_svg(inst, run.schedule)});

  Series& series = result.report.series("result", {"cmax", "max_replication"});
  series.add_row({run.makespan, static_cast<double>(run.max_replication)});

  std::ostringstream md;
  md << "Phase 1 replicates each task's data on one group of " << kM / kK
     << " machines; phase 2 runs online List Scheduling within each group.\n\n"
     << phase1.render_markdown() << "\n"
     << "![Figure 2: phase-2 schedule](" << kArtifactsToken
     << "/fig2-groups/fig2-groups.svg)\n\n"
     << "C_max = " << fmt(run.makespan, 2) << ", max replication degree = "
     << run.max_replication << ".\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Figure 3: the ratio-replication tradeoff (analytic).

ArtifactResult run_fig3(const ArtifactContext&) {
  constexpr MachineId kM = 210;
  const std::vector<double> alphas = {1.1, 1.5, 2.0};

  ArtifactResult result{
      ExperimentReport("fig3-ratio-replication",
                       "Figure 3: guarantee vs. replication degree"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  Series& series = result.report.series(
      "curves", {"alpha", "replication", "ls_group", "lpt_no_choice",
                 "lpt_no_restriction", "thm1_lower_bound"});

  std::vector<ChartSeries> chart;
  std::ostringstream md;
  TextTable headline({"alpha", "min replication beating the no-replication lower "
                               "bound",
                      "LS-Group guarantee there", "Thm 1 lower bound"});
  for (double alpha : alphas) {
    ChartSeries curve{"LS-Group " + alpha_tag(alpha), {}};
    ChartSeries lb{"Thm1 LB " + alpha_tag(alpha), {}};
    for (MachineId r : feasible_replication_degrees(kM)) {
      const double group = thm4_ls_group(alpha, kM, kM / r);
      series.add_row({alpha, static_cast<double>(r), group,
                      thm2_lpt_no_choice(alpha, kM),
                      thm3_lpt_no_restriction(alpha, kM),
                      thm1_no_replication_lower_bound(alpha, kM)});
      curve.points.emplace_back(static_cast<double>(r), group);
      lb.points.emplace_back(static_cast<double>(r),
                             thm1_no_replication_lower_bound(alpha, kM));
    }
    chart.push_back(std::move(curve));
    chart.push_back(std::move(lb));

    const MachineId beats = min_replication_beating_lower_bound(alpha, kM);
    if (beats != 0) {
      const double there = ratio_for_replication_degree(alpha, kM, beats);
      const double bound = thm1_no_replication_lower_bound(alpha, kM);
      headline.add_row({fmt(alpha, 2), std::to_string(beats), fmt(there),
                        fmt(bound)});
      result.checks.push_back(
          {"Fig 3 headline: LS-Group(r=" + std::to_string(beats) +
               ") beats the no-replication lower bound, " + alpha_tag(alpha),
           there, bound, TheoremCheck::Kind::kUpperBound, 1e-9});
    }
  }

  ChartOptions options;
  options.title = "Guarantee vs. replication degree (m=210)";
  options.x_label = "replication degree r (log)";
  options.y_label = "competitive ratio guarantee";
  options.log_x = true;
  result.extra_files.push_back(
      {"fig3-ratio-replication.svg", render_line_chart(chart, options)});

  md << "LS-Group guarantee per feasible replication degree r (divisors of m), "
        "against the flat no-replication lower bound of Theorem 1.\n\n"
     << "![Figure 3: ratio vs. replication](" << kArtifactsToken
     << "/fig3-ratio-replication/fig3-ratio-replication.svg)\n\n"
     << headline.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Figures 4 & 5: example SABO / ABO schedules.

ArtifactResult run_fig4(const ArtifactContext& ctx) {
  constexpr MachineId kM = 4;
  constexpr std::size_t kN = 10;
  constexpr double kDelta = 1.0;

  ArtifactResult result{
      ExperimentReport("fig4-sabo-schedule", "Figure 4: an example SABO_Delta "
                                             "schedule"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("delta", kDelta);

  WorkloadParams params;
  params.num_tasks = kN;
  params.num_machines = kM;
  params.alpha = 1.5;
  params.seed = ctx.seed + 4;
  const Instance inst = independent_sizes_workload(params);

  const SaboResult sabo = run_sabo(inst, kDelta);
  TextTable split({"task", "estimate", "size", "set", "machine"});
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    split.add_row({std::to_string(j), fmt(inst.estimate(j), 2),
                   fmt(inst.size(j), 2),
                   sabo.in_s2[j] ? "S2 (memory)" : "S1 (time)",
                   std::to_string(sabo.assignment[j])});
  }

  const Realization actual = realize(inst, NoiseModel::kUniform, ctx.seed + 11);
  const Schedule schedule =
      sequence_assignment(sabo.assignment, actual, inst.num_machines());
  SvgOptions options;
  options.hollow = sabo.in_s2;
  result.extra_files.push_back(
      {"fig4-sabo-schedule.svg", render_svg(inst, schedule, options)});

  Series& series = result.report.series("result", {"cmax", "mem_max"});
  series.add_row({schedule.makespan(), sabo.max_memory});

  std::ostringstream md;
  md << "SABO splits tasks into time-intensive S1 (solid) and memory-intensive "
        "S2 (hollow) and pins each to one machine (no replication).\n\n"
     << split.render_markdown() << "\n"
     << "![Figure 4: SABO schedule](" << kArtifactsToken
     << "/fig4-sabo-schedule/fig4-sabo-schedule.svg)\n\n"
     << "C_max = " << fmt(schedule.makespan(), 2) << ", Mem_max = "
     << fmt(sabo.max_memory, 2) << ".\n";
  result.markdown = md.str();
  return result;
}

ArtifactResult run_fig5(const ArtifactContext& ctx) {
  constexpr MachineId kM = 4;
  constexpr std::size_t kN = 10;
  constexpr double kDelta = 1.0;

  ArtifactResult result{
      ExperimentReport("fig5-abo-schedule", "Figure 5: an example ABO_Delta "
                                            "schedule"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("delta", kDelta);

  WorkloadParams params;
  params.num_tasks = kN;
  params.num_machines = kM;
  params.alpha = 1.5;
  params.seed = ctx.seed + 4;
  const Instance inst = independent_sizes_workload(params);
  const Realization actual = realize(inst, NoiseModel::kUniform, ctx.seed + 11);

  const AboResult abo = run_abo(inst, actual, kDelta);
  TextTable split({"task", "estimate", "size", "set", "replicas", "ran on"});
  for (TaskId j = 0; j < inst.num_tasks(); ++j) {
    split.add_row({std::to_string(j), fmt(inst.estimate(j), 2),
                   fmt(inst.size(j), 2),
                   abo.in_s2[j] ? "S2 (pinned)" : "S1 (replicated)",
                   std::to_string(abo.placement.replication_degree(j)),
                   std::to_string(abo.schedule.assignment[j])});
  }
  SvgOptions options;
  options.hollow = abo.in_s2;
  result.extra_files.push_back(
      {"fig5-abo-schedule.svg", render_svg(inst, abo.schedule, options)});

  Series& series = result.report.series("result", {"cmax", "mem_max"});
  series.add_row({abo.makespan, abo.max_memory});

  std::ostringstream md;
  md << "ABO pins memory-intensive S2 tasks (hollow) and replicates "
        "time-intensive S1 tasks everywhere for online dispatch.\n\n"
     << split.render_markdown() << "\n"
     << "![Figure 5: ABO schedule](" << kArtifactsToken
     << "/fig5-abo-schedule/fig5-abo-schedule.svg)\n\n"
     << "C_max = " << fmt(abo.makespan, 2) << ", Mem_max = "
     << fmt(abo.max_memory, 2) << " (every S1 replica counted).\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Figure 6: memory-makespan guarantee tradeoff.

ArtifactResult run_fig6(const ArtifactContext&) {
  struct Config {
    const char* label;
    const char* slug;
    MachineId m;
    double alpha2;
    double rho;
  };
  constexpr Config kConfigs[] = {
      {"(a) m=5, alpha^2=2, rho=4/3", "a", 5, 2.0, 4.0 / 3.0},
      {"(b) m=5, alpha^2=3, rho=1", "b", 5, 3.0, 1.0},
      {"(c) m=5, alpha^2=3, rho=4/3", "c", 5, 3.0, 4.0 / 3.0},
  };
  constexpr int kPoints = 17;

  ArtifactResult result{
      ExperimentReport("fig6-memory-makespan",
                       "Figure 6: memory-makespan guarantee tradeoff"),
      {}, {}, {}};
  Series& series = result.report.series(
      "curves", {"config", "is_abo", "delta", "makespan_guarantee",
                 "memory_guarantee", "frontier_memory"});

  std::ostringstream md;
  md << "SABO and ABO guarantee curves swept over Delta, against the "
        "impossibility frontier memory >= 1 + 1/(makespan - 1) of the cited "
        "SBO work.\n\n";

  int config_index = 0;
  for (const Config& c : kConfigs) {
    const double alpha = std::sqrt(c.alpha2);
    std::vector<ChartSeries> chart;
    for (auto algo : {MemAwareAlgorithm::kSabo, MemAwareAlgorithm::kAbo}) {
      const bool is_abo = algo == MemAwareAlgorithm::kAbo;
      ChartSeries curve{is_abo ? "ABO" : "SABO", {}};
      ChartSeries frontier{"frontier", {}};
      double min_margin = 1e30;
      for (const GuaranteeCurvePoint& pt :
           guarantee_curve(algo, alpha, c.m, c.rho, c.rho, 0.05, 20.0, kPoints)) {
        const double mk = pt.guarantee.makespan;
        const double mem = pt.guarantee.memory;
        const double frontier_mem =
            mk > 1.0 ? impossibility_memory_for_makespan(mk) : 0.0;
        series.add_row({static_cast<double>(config_index), is_abo ? 1.0 : 0.0,
                        pt.delta, mk, mem, frontier_mem});
        curve.points.emplace_back(mk, mem);
        if (frontier_mem > 0) {
          frontier.points.emplace_back(mk, frontier_mem);
          min_margin = std::min(min_margin, mem / frontier_mem);
        }
      }
      chart.push_back(std::move(curve));
      if (!is_abo) chart.push_back(std::move(frontier));
      result.checks.push_back(
          {std::string("Fig 6") + c.slug + " " + (is_abo ? "ABO" : "SABO") +
               ": guarantee curve sits above the impossibility frontier",
           min_margin, 1.0, TheoremCheck::Kind::kLowerBound, 1e-9});
    }
    ChartOptions options;
    options.title = std::string("Figure 6 ") + c.label;
    options.x_label = "makespan guarantee";
    options.y_label = "memory guarantee";
    const std::string filename =
        std::string("fig6-memory-makespan-") + c.slug + ".svg";
    result.extra_files.push_back({filename, render_line_chart(chart, options)});
    md << "![Figure 6 " << c.slug << "](" << kArtifactsToken
       << "/fig6-memory-makespan/" << filename << ")\n";
    ++config_index;
  }
  md << "\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Theorem sweeps: worst measured ratio vs. proven bound.

struct TheoremSweepSpec {
  std::string name;
  std::string theorem;
  MachineId m;
  std::size_t n;
  std::size_t trials;
  std::vector<double> alphas;
};

ArtifactResult run_ratio_theorem_sweep(
    const ArtifactContext& ctx, const TheoremSweepSpec& spec,
    const std::function<TwoPhaseStrategy()>& make_strategy,
    const std::function<double(double)>& bound_for_alpha,
    const std::string& protocol_note) {
  const std::vector<NoiseModel> noises = {NoiseModel::kUniform,
                                          NoiseModel::kTwoPoint,
                                          NoiseModel::kAlwaysHigh};

  ArtifactResult result{ExperimentReport(spec.name, spec.theorem), {}, {}, {}};
  result.report.set_param("m", static_cast<double>(spec.m));
  result.report.set_param("n", static_cast<double>(spec.n));
  result.report.set_param("trials", static_cast<double>(spec.trials));
  Series& series =
      result.report.series("sweep", {"alpha", "measured_worst", "bound"});

  const TwoPhaseStrategy strategy = make_strategy();
  TextTable table({"alpha", "worst measured ratio", "proven bound", "margin"});
  for (double alpha : spec.alphas) {
    WorkloadParams params;
    params.num_tasks = spec.n;
    params.num_machines = spec.m;
    params.alpha = alpha;
    params.seed = ctx.seed + 21;
    const Instance inst = uniform_workload(params, 1.0, 10.0);
    const double measured = worst_measured_ratio(strategy, inst, spec.trials,
                                                 ctx.seed + 300, noises, ctx);
    const double bound = bound_for_alpha(alpha);
    table.add_row({fmt(alpha, 2), fmt(measured), fmt(bound),
                   fmt(bound - measured)});
    series.add_row({alpha, measured, bound});
    result.checks.push_back({spec.theorem + ": " + strategy.name() + ", " +
                                 alpha_tag(alpha),
                             measured, bound, TheoremCheck::Kind::kUpperBound,
                             1e-9});
  }

  std::ostringstream md;
  md << protocol_note << "\n\n" << table.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

ArtifactResult run_thm4_sweep(const ArtifactContext& ctx) {
  constexpr MachineId kM = 8;
  constexpr std::size_t kN = 16;
  constexpr std::size_t kTrials = 6;
  const std::vector<double> alphas = {1.5, 2.0};
  const std::vector<MachineId> ks = {2, 4};
  const std::vector<NoiseModel> noises = {NoiseModel::kUniform,
                                          NoiseModel::kTwoPoint};

  ArtifactResult result{
      ExperimentReport("thm4-ls-group", "Theorem 4: LS-Group guarantee"), {}, {},
      {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("trials", static_cast<double>(kTrials));
  Series& series = result.report.series(
      "sweep", {"alpha", "k_groups", "measured_worst", "bound"});

  TextTable table({"alpha", "k groups", "worst measured ratio", "proven bound",
                   "margin"});
  for (double alpha : alphas) {
    WorkloadParams params;
    params.num_tasks = kN;
    params.num_machines = kM;
    params.alpha = alpha;
    params.seed = ctx.seed + 21;
    const Instance inst = uniform_workload(params, 1.0, 10.0);
    for (MachineId k : ks) {
      const TwoPhaseStrategy strategy = make_ls_group(k);
      const double measured = worst_measured_ratio(strategy, inst, kTrials,
                                                   ctx.seed + 300, noises, ctx);
      const double bound = thm4_ls_group(alpha, kM, k);
      table.add_row({fmt(alpha, 2), std::to_string(k), fmt(measured), fmt(bound),
                     fmt(bound - measured)});
      series.add_row({alpha, static_cast<double>(k), measured, bound});
      result.checks.push_back({"Theorem 4: LS-Group(k=" + std::to_string(k) +
                                   "), " + alpha_tag(alpha),
                               measured, bound, TheoremCheck::Kind::kUpperBound,
                               1e-9});
    }
  }

  std::ostringstream md;
  md << "Worst measured ratio of LS-Group over the placement-aware adversary "
        "and "
     << kTrials << " trials each of uniform/two-point noise (m=" << kM
     << ", n=" << kN << ", certified optima) must stay below the Theorem 4 "
        "closed form.\n\n"
     << table.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

ArtifactResult run_memaware_theorems(const ArtifactContext& ctx) {
  constexpr MachineId kM = 5;
  constexpr std::size_t kN = 12;
  constexpr std::size_t kTrials = 5;
  constexpr double kAlpha = 1.5;
  const std::vector<double> deltas = {0.5, 1.0, 2.0};

  ArtifactResult result{
      ExperimentReport("thm5-8-memaware",
                       "Theorems 5-8: SABO/ABO bi-objective guarantees"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("alpha", kAlpha);
  result.report.set_param("trials", static_cast<double>(kTrials));
  Series& series = result.report.series(
      "sweep", {"is_abo", "delta", "worst_makespan_ratio", "makespan_guarantee",
                "worst_memory_ratio", "memory_guarantee"});

  WorkloadParams params;
  params.num_tasks = kN;
  params.num_machines = kM;
  params.alpha = kAlpha;
  params.seed = ctx.seed + 17;
  const Instance inst = independent_sizes_workload(params);
  const MemAwareConfig config = memaware_config(ctx);

  TextTable table({"algorithm", "Delta", "worst makespan ratio",
                   "makespan guarantee", "worst memory ratio",
                   "memory guarantee"});
  for (const bool is_abo : {false, true}) {
    const char* algo = is_abo ? "ABO" : "SABO";
    const char* theorems = is_abo ? "Theorems 7-8" : "Theorems 5-6";
    for (double delta : deltas) {
      double worst_mk = 0, worst_mem = 0, mk_guar = 0, mem_guar = 0;
      for (std::size_t t = 0; t < kTrials; ++t) {
        const Realization actual =
            realize(inst, NoiseModel::kUniform, ctx.seed + 50 + t);
        const MemAwareTrial trial = is_abo
                                        ? measure_abo(inst, actual, delta, config)
                                        : measure_sabo(inst, actual, delta, config);
        worst_mk = std::max(worst_mk, trial.makespan_ratio);
        worst_mem = std::max(worst_mem, trial.memory_ratio);
        mk_guar = trial.makespan_guarantee;
        mem_guar = trial.memory_guarantee;
      }
      table.add_row({algo, fmt(delta, 2), fmt(worst_mk), fmt(mk_guar),
                     fmt(worst_mem), fmt(mem_guar)});
      series.add_row({is_abo ? 1.0 : 0.0, delta, worst_mk, mk_guar, worst_mem,
                      mem_guar});
      const std::string suffix =
          std::string(algo) + ", Delta=" + fmt(delta, 2);
      result.checks.push_back({std::string(theorems) + " makespan: " + suffix,
                               worst_mk, mk_guar,
                               TheoremCheck::Kind::kUpperBound, 1e-9});
      result.checks.push_back({std::string(theorems) + " memory: " + suffix,
                               worst_mem, mem_guar,
                               TheoremCheck::Kind::kUpperBound, 1e-9});
    }
  }

  std::ostringstream md;
  md << "Worst measured (makespan, memory) ratios over " << kTrials
     << " uniform-noise realizations (m=" << kM << ", n=" << kN
     << ", certified optima for both objectives) must stay below the "
        "bi-objective guarantees.\n\n"
     << table.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

// -------------------------------------------------------------------
// Large-n theorem validation: certified-LB denominators from the
// Hochbaum-Shmoys backend.

ArtifactResult run_certify_scale_sweep(const ArtifactContext& ctx) {
  constexpr MachineId kM = 8;
  constexpr std::size_t kN = 100'000;
  constexpr std::size_t kTrials = 2;
  const std::vector<double> alphas = {1.5, 2.0};
  const std::vector<NoiseModel> noises = {NoiseModel::kUniform,
                                          NoiseModel::kTwoPoint};

  ArtifactResult result{
      ExperimentReport("ext-certify-scale",
                       "Theorems 2-4 at n=10^5: PTAS-certified denominators"),
      {}, {}, {}};
  result.report.set_param("m", static_cast<double>(kM));
  result.report.set_param("n", static_cast<double>(kN));
  result.report.set_param("trials", static_cast<double>(kTrials));
  Series& series = result.report.series(
      "sweep", {"alpha", "replication", "measured_worst", "bound"});

  struct Row {
    MachineId replication;
    std::string theorem;
    std::function<double(double)> bound;
  };
  const std::vector<TwoPhaseStrategy> strategies = {
      make_lpt_no_choice(), make_ls_group(2), make_lpt_no_restriction()};
  const std::vector<Row> rows = {
      {1, "Theorem 2", [](double a) { return thm2_lpt_no_choice(a, kM); }},
      {kM / 2, "Theorem 4", [](double a) { return thm4_ls_group(a, kM, 2); }},
      {kM, "Theorem 3", [](double a) { return thm3_lpt_no_restriction(a, kM); }}};

  const RatioExperimentConfig config = ratio_config(ctx);
  TextTable table({"alpha", "replication", "algorithm", "worst measured ratio",
                   "proven bound", "exact denominators"});
  for (double alpha : alphas) {
    WorkloadParams params;
    params.num_tasks = kN;
    params.num_machines = kM;
    params.alpha = alpha;
    params.seed = ctx.seed + 33;
    const Instance inst = uniform_workload(params, 1.0, 10.0);
    // Every strategy is scored on one realization set per noise model,
    // certified once.
    const auto scored = measure_ratio_trials(strategies, inst, noises, kTrials,
                                             ctx.seed + 400, config);
    for (std::size_t s = 0; s < rows.size(); ++s) {
      const Row& row = rows[s];
      const TwoPhaseStrategy& strategy = strategies[s];
      double worst = 0;
      bool all_exact = true;
      for (std::size_t k = 0; k < noises.size(); ++k) {
        const RatioAggregate agg =
            aggregate_ratio_trials(strategy.name(), noises[k], scored[s][k]);
        worst = std::max(worst, agg.worst.ratio);
        all_exact = all_exact && agg.worst.exact_optimum;
      }
      const double bound = row.bound(alpha);
      table.add_row({fmt(alpha, 2), "|M_j|=" + std::to_string(row.replication),
                     strategy.name(), fmt(worst), fmt(bound),
                     all_exact ? "yes" : "no (certified LB)"});
      series.add_row({alpha, static_cast<double>(row.replication), worst,
                      bound});
      result.checks.push_back({row.theorem + " at n=1e5: " + strategy.name() + ", " +
                                   alpha_tag(alpha),
                               worst, bound, TheoremCheck::Kind::kUpperBound,
                               1e-9});
    }
  }

  std::ostringstream md;
  md << "The theorem sweeps above certify their denominators with exact "
        "branch-and-bound, which caps them near n=24. This sweep re-runs "
        "the Theorem 2-4 validations at n=" << kN << " (m=" << kM
     << "): denominators route to the Hochbaum-Shmoys dual-approximation "
        "backend, whose certified lower bound never exceeds OPT, so "
        "measured ratios over-estimate the true competitive ratio and "
        "\"measured <= bound\" stays a sound check (see "
        "docs/ALGORITHMS.md). Worst ratio over " << kTrials
     << " trials each of uniform/two-point noise; the placement-aware "
        "adversary is a small-n construction and is exercised by the "
        "exact sweeps.\n\n"
     << table.render_markdown() << "\n";
  result.markdown = md.str();
  return result;
}

std::map<std::string, std::string> ratio_sweep_params(const TheoremSweepSpec& spec) {
  std::map<std::string, std::string> params;
  params["m"] = std::to_string(spec.m);
  params["n"] = std::to_string(spec.n);
  params["trials"] = std::to_string(spec.trials);
  std::string alphas;
  for (double a : spec.alphas) alphas += fmt(a, 2) + ",";
  params["alphas"] = alphas;
  params["noises"] = "adversary,uniform,two-point,always-high";
  return params;
}

std::vector<Artifact> build_registry() {
  std::vector<Artifact> artifacts;

  artifacts.push_back(
      {"table1-summary", "Table 1: replication-bound model guarantees", "Table 1",
       "The guarantee formulas of the replication-bound model tabulated over "
       "(m, alpha), with the worst measured competitive ratio of each "
       "algorithm next to its closed form.",
       ArtifactKind::kTable,
       {},
       {{"m", "8"}, {"n", "24"}, {"trials", "5"}, {"alphas", "1.1,1.5,2.0"}},
       run_table1});

  artifacts.push_back(
      {"table2-memaware", "Table 2: memory-aware guarantees", "Table 2",
       "The SABO/ABO bi-objective guarantees with measured makespan and memory "
       "ratios against certified optima.",
       ArtifactKind::kTable,
       {},
       {{"m", "5"}, {"n", "14"}, {"alpha", "1.5"}, {"deltas", "0.1,0.5,2.0,8.0"}},
       run_table2});

  artifacts.push_back(
      {"fig1-adversary", "Figure 1: the Theorem 1 adversary", "Figure 1",
       "The lower-bound construction: an online schedule after the adversary "
       "move, and the lambda sweep showing the measured ratio converging to "
       "the Theorem 1 bound from below.",
       ArtifactKind::kFigure,
       {},
       {{"m", "6"}, {"alpha", "2.0"}, {"sweep", "64"}},
       run_fig1});

  artifacts.push_back(
      {"fig2-groups", "Figure 2: replication in groups", "Figure 2",
       "The two-phase group construction: phase-1 group placement and the "
       "phase-2 online schedule within groups.",
       ArtifactKind::kFigure,
       {},
       {{"m", "6"}, {"k", "2"}, {"n", "10"}, {"alpha", "1.5"}},
       run_fig2});

  artifacts.push_back(
      {"fig3-ratio-replication", "Figure 3: ratio vs. replication degree",
       "Figure 3",
       "The guarantee attached to every feasible replication degree on m=210 "
       "machines, for three alpha values (analytic; the paper's central "
       "tradeoff).",
       ArtifactKind::kFigure,
       {"smoke"},
       {{"m", "210"}, {"alphas", "1.1,1.5,2.0"}},
       run_fig3});

  artifacts.push_back(
      {"fig4-sabo-schedule", "Figure 4: an example SABO schedule", "Figure 4",
       "SABO's S1/S2 split and the resulting static schedule under a "
       "uniform-noise realization (S2 tasks hollow, as in the paper).",
       ArtifactKind::kFigure,
       {},
       {{"m", "4"}, {"n", "10"}, {"delta", "1.0"}},
       run_fig4});

  artifacts.push_back(
      {"fig5-abo-schedule", "Figure 5: an example ABO schedule", "Figure 5",
       "ABO's pinned S2 tasks and everywhere-replicated S1 tasks dispatched "
       "online.",
       ArtifactKind::kFigure,
       {},
       {{"m", "4"}, {"n", "10"}, {"delta", "1.0"}},
       run_fig5});

  artifacts.push_back(
      {"fig6-memory-makespan", "Figure 6: memory-makespan tradeoff", "Figure 6",
       "SABO and ABO guarantee curves in the (makespan factor, memory factor) "
       "plane for the paper's three configurations, against the impossibility "
       "frontier.",
       ArtifactKind::kFigure,
       {"smoke"},
       {{"points", "17"}, {"configs", "a,b,c"}},
       run_fig6});

  {
    TheoremSweepSpec spec{"thm2-lpt-no-choice", "Theorem 2", 8, 20, 8,
                          {1.1, 1.5, 2.0}};
    artifacts.push_back(
        {spec.name, "Theorem 2: LPT-NoChoice is 2a^2m/(2a^2+m-1)-competitive",
         "Theorem 2",
         "Empirical validation: the worst measured ratio of LPT-NoChoice over "
         "the placement-aware adversary and three stochastic noise models "
         "never exceeds the Theorem 2 guarantee.",
         ArtifactKind::kTheorem, {}, ratio_sweep_params(spec),
         [spec](const ArtifactContext& ctx) {
           return run_ratio_theorem_sweep(
               ctx, spec, make_lpt_no_choice,
               [&](double alpha) { return thm2_lpt_no_choice(alpha, spec.m); },
               "Worst measured ratio of LPT-NoChoice over the placement-aware "
               "adversary and 8 trials each of uniform/two-point/always-high "
               "noise (m=8, n=20, certified optima) vs. the Theorem 2 bound.");
         }});
  }

  {
    TheoremSweepSpec spec{"thm3-lpt-no-restriction", "Theorem 3", 8, 20, 8,
                          {1.1, 1.5, 2.0}};
    artifacts.push_back(
        {spec.name,
         "Theorem 3: LPT-NoRestriction is min(1+(m-1)/m a^2/2, 2-1/m)-"
         "competitive",
         "Theorem 3",
         "Empirical validation: the worst measured ratio of LPT-NoRestriction "
         "(full replication) never exceeds the combined Theorem 3 + Graham "
         "guarantee.",
         ArtifactKind::kTheorem, {}, ratio_sweep_params(spec),
         [spec](const ArtifactContext& ctx) {
           return run_ratio_theorem_sweep(
               ctx, spec, make_lpt_no_restriction,
               [&](double alpha) {
                 return thm3_lpt_no_restriction(alpha, spec.m);
               },
               "Worst measured ratio of LPT-NoRestriction over the "
               "placement-aware adversary and 8 trials each of "
               "uniform/two-point/always-high noise (m=8, n=20, certified "
               "optima) vs. the Theorem 3 + Graham bound.");
         }});
  }

  artifacts.push_back(
      {"thm4-ls-group", "Theorem 4: LS-Group guarantee", "Theorem 4",
       "Empirical validation: the worst measured ratio of LS-Group for k in "
       "{2, 4} groups never exceeds the Theorem 4 closed form.",
       ArtifactKind::kTheorem,
       {"smoke"},
       {{"m", "8"}, {"n", "16"}, {"trials", "6"}, {"alphas", "1.5,2.0"},
        {"ks", "2,4"}},
       run_thm4_sweep});

  artifacts.push_back(
      {"thm5-8-memaware", "Theorems 5-8: bi-objective guarantees",
       "Theorems 5-8",
       "Empirical validation: SABO (Thms 5-6) and ABO (Thms 7-8) stay below "
       "both their makespan and memory guarantees across Delta values and "
       "realizations.",
       ArtifactKind::kTheorem,
       {},
       {{"m", "5"}, {"n", "12"}, {"alpha", "1.5"}, {"deltas", "0.5,1.0,2.0"},
        {"trials", "5"}},
       run_memaware_theorems});

  artifacts.push_back(
      {"ext-certify-scale",
       "Theorems 2-4 at n=10^5: PTAS-certified denominators", "Theorems 2-4",
       "Empirical validation at scale: the Theorem 2-4 ratio checks re-run "
       "at n=100000, where competitive-ratio denominators come from the "
       "Hochbaum-Shmoys certified lower bound instead of exact "
       "branch-and-bound.",
       ArtifactKind::kTheorem,
       {"smoke"},
       {{"m", "8"}, {"n", "100000"}, {"trials", "2"}, {"alphas", "1.5,2.0"}},
       run_certify_scale_sweep});

  return artifacts;
}

}  // namespace

const std::vector<Artifact>& paper_artifacts() {
  static const std::vector<Artifact> kRegistry = build_registry();
  return kRegistry;
}

std::vector<const Artifact*> select_artifacts(const std::vector<Artifact>& all,
                                              const std::string& filter) {
  std::vector<std::string> terms;
  std::stringstream ss(filter);
  std::string term;
  while (std::getline(ss, term, ',')) {
    if (!term.empty()) terms.push_back(term);
  }

  std::vector<const Artifact*> selected;
  for (const Artifact& artifact : all) {
    if (terms.empty()) {
      selected.push_back(&artifact);
      continue;
    }
    for (const std::string& t : terms) {
      if (artifact.matches(t)) {
        selected.push_back(&artifact);
        break;
      }
    }
  }
  return selected;
}

}  // namespace rdp::repro
