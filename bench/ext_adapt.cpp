// Adaptive replication degree under drifting uncertainty: does closing
// the loop (estimate alpha online, re-pick the degree per task class)
// beat committing to any one fixed LS-Group degree when the declared
// alpha is a lie? Two sections, both deterministic in --seed:
//
//   sweep -- a drifting-alpha scenario sweep (realized band
//     widens geometrically from --alpha-from to --alpha-to while the
//     instance keeps declaring --alpha-from). The adaptive strategy
//     places each scenario with its running estimator, then digests that
//     scenario's (estimate, actual) pairs before the next; every fixed
//     strategy of the paper family places once and rides the drift
//     blind. Score = mean certified competitive ratio (makespan over
//     the certified B&B lower bound, which is <= OPT). The acceptance
//     criterion is sweep.adaptive_beats_lsgroup = 1: the adaptive mean
//     ratio undercuts every fixed LS-Group degree.
//
//   fuzz -- the check_adaptive_bound cross-check from
//     check/fuzz.cpp replayed standalone over --fuzz-seeds drifting-
//     alpha cases: the adaptive placement's realized makespan must stay
//     under its mixed-degree theorem bound evaluated at the *realized*
//     alpha. fuzz.bound_violations is gated exact at 0;
//     fuzz.max_bound_fraction reports how much of the bound the worst
//     case actually used.
//
// --out writes the perf-gate record (perf::BenchRecord).
//
// Usage: ext_adapt [--trials=60] [--n=60] [--m=8] [--alpha-from=1.1]
//        [--alpha-to=3.0] [--fuzz-seeds=300] [--budget=300000] [--seed=1]
//        [--out=BENCH_adapt.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adapt/adaptive_strategy.hpp"
#include "adapt/alpha_estimator.hpp"
#include "algo/dispatch_policies.hpp"
#include "algo/strategy.hpp"
#include "check/fuzz.hpp"
#include "cli/args.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exact/certify.hpp"
#include "exp/scenario.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "perf/bench_record.hpp"
#include "sim/online_dispatcher.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto trials = static_cast<std::size_t>(args.get("trials", std::int64_t{60}));
  const auto n = static_cast<std::size_t>(args.get("n", std::int64_t{60}));
  const auto m = static_cast<MachineId>(args.get("m", std::int64_t{8}));
  const double alpha_from = args.get("alpha-from", 1.1);
  const double alpha_to = args.get("alpha-to", 3.0);
  const auto fuzz_seeds =
      static_cast<std::size_t>(args.get("fuzz-seeds", std::int64_t{300}));
  const auto budget =
      static_cast<std::uint64_t>(args.get("budget", std::int64_t{300'000}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  // Slack of the degree-selection band (see adapt/adaptive_strategy.hpp):
  // smaller = escalate replication sooner once alpha_hat drifts, at the
  // price of more replicas. Defaults to the library default.
  const double bound_slack = args.get("slack", AdaptiveGroupOptions{}.bound_slack);
  const std::string out_path = args.get("out", std::string{});
  if (trials == 0 || n == 0 || m == 0 || !(alpha_from >= 1.0) ||
      !(alpha_to >= alpha_from)) {
    std::cerr << "ext_adapt: need trials/n/m >= 1 and 1 <= alpha-from <= "
                 "alpha-to\n";
    return EXIT_FAILURE;
  }

  // ---- Section 1: drifting-alpha sweep, adaptive vs the fixed family.
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = alpha_from;  // the declared band; the drift ignores it
  params.seed = seed;
  const Instance instance = uniform_workload(params, 1.0, 10.0);
  const ScenarioSet scenarios =
      make_drifting_scenarios(instance, trials, seed + 1, alpha_from, alpha_to);

  const auto sweep_start = Clock::now();
  // One certified lower bound per scenario, shared by every strategy.
  std::vector<CertifyRequest> requests(trials);
  for (std::size_t s = 0; s < trials; ++s) {
    requests[s] = CertifyRequest{scenarios.scenarios[s].actual, m};
  }
  CertifyOptions copts;
  copts.node_budget = budget;
  const std::vector<CertifiedCmax> lbs = certified_cmax_batch(requests, copts);

  const auto mean_ratio_fixed = [&](const TwoPhaseStrategy& strategy) {
    const Placement placement = strategy.place(instance);
    const std::vector<TaskId> priority = make_priority(instance, strategy.rule());
    double total = 0.0;
    for (std::size_t s = 0; s < trials; ++s) {
      const DispatchResult run =
          dispatch_online(instance, placement, scenarios.scenarios[s], priority);
      total += run.schedule.makespan() / lbs[s].lower;
    }
    return total / static_cast<double>(trials);
  };

  std::vector<std::pair<std::string, double>> fixed_ratios;
  double best_lsgroup = std::numeric_limits<double>::infinity();
  std::string best_lsgroup_name;
  for (const TwoPhaseStrategy& strategy : paper_strategy_family(m)) {
    const double ratio = mean_ratio_fixed(strategy);
    fixed_ratios.emplace_back(strategy.name(), ratio);
    if (strategy.name().rfind("LS-Group", 0) == 0 && ratio < best_lsgroup) {
      best_lsgroup = ratio;
      best_lsgroup_name = strategy.name();
    }
  }

  // The adaptive strategy replaces per scenario and digests each
  // scenario's outcomes before placing the next -- the closed loop the
  // fixed strategies lack.
  AdaptiveGroupOptions adapt_options;
  adapt_options.bound_slack = bound_slack;
  auto estimator = std::make_shared<AlphaEstimator>(adapt_options.estimator);
  const TwoPhaseStrategy adaptive = make_adaptive_group(estimator, adapt_options);
  const TaskClassifier classifier(instance, estimator->num_classes());
  const std::vector<TaskId> adaptive_priority =
      make_priority(instance, adaptive.rule());
  double adaptive_total = 0.0;
  for (std::size_t s = 0; s < trials; ++s) {
    const Placement placement = adaptive.place(instance);
    const DispatchResult run = dispatch_online(
        instance, placement, scenarios.scenarios[s], adaptive_priority);
    adaptive_total += run.schedule.makespan() / lbs[s].lower;
    estimator->observe_run(classifier, instance, scenarios.scenarios[s]);
  }
  const double adaptive_mean = adaptive_total / static_cast<double>(trials);
  const double final_alpha_hat = estimator->alpha_hat_global(instance.alpha());
  const bool beats_lsgroup = adaptive_mean < best_lsgroup;
  const double sweep_seconds = seconds_since(sweep_start);

  TextTable table({"strategy", "mean certified ratio"});
  for (const auto& [name, ratio] : fixed_ratios) {
    table.add_row({name, fmt(ratio, 4)});
  }
  table.add_row({"Adaptive-Group (online)", fmt(adaptive_mean, 4)});
  std::cout << "ext_adapt: drifting-alpha sweep, n=" << n << " m=" << m
            << " trials=" << trials << " alpha " << fmt(alpha_from, 2) << " -> "
            << fmt(alpha_to, 2) << "\n"
            << table.render() << "adaptive final alpha-hat: "
            << fmt(final_alpha_hat, 4) << "  beats best fixed LS-Group ("
            << best_lsgroup_name << "): " << (beats_lsgroup ? "yes" : "NO")
            << "\n";

  // ---- Section 2: theorem-bound soundness fuzz at the realized alpha.
  const auto fuzz_start = Clock::now();
  check::FuzzCaseConfig fuzz_config;
  fuzz_config.scenario = check::FuzzScenario::kDriftingAlpha;
  std::size_t violations = 0;
  double max_bound_fraction = 0.0;
  for (std::size_t s = 0; s < fuzz_seeds; ++s) {
    const check::FuzzCase fuzz_case =
        check::make_fuzz_case(seed + s, fuzz_config);
    AdaptiveGroupOptions options;
    options.estimator.num_classes = 3;
    options.estimator.min_samples = 4;
    auto warm = std::make_shared<AlphaEstimator>(options.estimator);
    const TaskClassifier fuzz_classifier(fuzz_case.instance,
                                         options.estimator.num_classes);
    warm->observe_run(fuzz_classifier, fuzz_case.instance, fuzz_case.actual);
    const TwoPhaseStrategy strategy = make_adaptive_group(warm, options);
    const Placement placement = strategy.place(fuzz_case.instance);
    const DispatchResult run =
        dispatch_online(fuzz_case.instance, placement, fuzz_case.actual,
                        make_priority(fuzz_case.instance, strategy.rule()));
    const double alpha_real = realized_alpha(fuzz_case.instance, fuzz_case.actual);
    const double bound = adaptive_theorem_bound(
        placement, alpha_real, fuzz_case.instance.num_machines());
    const CertifiedCmax opt = certified_cmax(
        fuzz_case.actual.actual, fuzz_case.instance.num_machines(), budget);
    const double fraction = run.schedule.makespan() / (bound * opt.lower);
    max_bound_fraction = std::max(max_bound_fraction, fraction);
    if (fraction > 1.0 + 1e-9) ++violations;
  }
  const double fuzz_seconds = seconds_since(fuzz_start);
  std::cout << "adaptive bound fuzz: " << fuzz_seeds << " drifting-alpha seeds, "
            << violations << " violation(s), max bound fraction "
            << fmt(max_bound_fraction, 4) << "\n";
  if (violations != 0) {
    std::cerr << "ext_adapt: ADAPTIVE BOUND VIOLATION\n";
    return EXIT_FAILURE;
  }

  if (!out_path.empty()) {
    perf::BenchRecord record;
    record.name = "adapt";
    record.set_params(JsonObject{{"tasks", n}, {"machines", m}, {"seed", seed},
                                 {"budget", budget}, {"trials", trials},
                                 {"alpha_from", alpha_from}, {"alpha_to", alpha_to},
                                 {"fuzz_seeds", fuzz_seeds}});
    // Both sections are deterministic in the seed (dispatch and
    // certification are pure FP), so the ratios gate "exact" with
    // dump/parse slack; the bound-violation counter is the acceptance
    // criterion and gates hard at its recorded value (0). Wall-clock
    // sections are timing-class.
    using perf::Direction, perf::Noise;
    record.add("sweep.adaptive_mean_ratio", adaptive_mean, Direction::kLower,
               Noise::kExact, /*abs_slack=*/1e-9);
    record.add("sweep.best_lsgroup_mean_ratio", best_lsgroup, Direction::kLower,
               Noise::kExact, /*abs_slack=*/1e-9);
    record.add("sweep.adaptive_final_alpha_hat", final_alpha_hat, Direction::kNone,
               Noise::kExact, /*abs_slack=*/1e-9);
    // The headline: 1 iff the adaptive mean ratio undercuts every fixed
    // LS-Group degree on the drifting sweep.
    record.add("sweep.adaptive_beats_lsgroup", beats_lsgroup ? 1.0 : 0.0,
               Direction::kHigher, Noise::kExact);
    for (const auto& [name, ratio] : fixed_ratios) {
      record.add("sweep.fixed." + name, ratio, Direction::kNone, Noise::kExact,
                 /*abs_slack=*/1e-9);
    }
    record.add("fuzz.bound_violations", static_cast<double>(violations),
               Direction::kLower, Noise::kExact);
    record.add("fuzz.max_bound_fraction", max_bound_fraction, Direction::kLower,
               Noise::kExact, /*abs_slack=*/1e-9);
    record.add("sweep_seconds", sweep_seconds, Direction::kLower, Noise::kTiming);
    record.add("fuzz_seconds", fuzz_seconds, Direction::kLower, Noise::kTiming);
    record.save(out_path);
  }
  return EXIT_SUCCESS;
}
