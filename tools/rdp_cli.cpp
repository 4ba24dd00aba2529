// rdp_cli -- the library as a command-line tool. Subcommands compose via
// files (instances and traces in the library's CSV dialects):
//
//   rdp_cli generate --kind=uniform --n=40 --m=8 --alpha=1.5 --seed=1
//           --out=inst.csv
//   rdp_cli realize  --instance=inst.csv --noise=two-point --seed=7
//           --out=trace.csv
//   rdp_cli run      --instance=inst.csv --strategy=ls-group:2
//           [--trace=trace.csv | --noise=uniform --seed=7]
//           [--svg=gantt.svg] [--json=result.json]
//   rdp_cli evaluate --instance=inst.csv --scenarios=12 --seed=3
//   rdp_cli sweep    --instance=inst.csv --strategy=ls-group:2 --trials=64
//           --threads=4 --ratios --cache-size=4096 --certify-budget=2000000
//           --metrics-out=metrics.json --trace-out=run.json
//   rdp_cli bounds   --m=8 --alpha=1.5
//
// Every command prints a human-readable summary; `run --json` also emits
// a machine-readable report. The global flags --metrics-out=FILE and
// --trace-out=FILE work with every command: they install an observability
// scope for the command's duration and write a metrics snapshot (JSON)
// and a wall-clock trace (Chrome trace_event format, or JSONL when FILE
// ends in .jsonl) on exit. --sample-out=FILE additionally runs an
// obs::RunSampler that appends a JSONL metrics snapshot every
// --sample-period=MS milliseconds for the duration of the command.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rdp.hpp"

namespace {

using namespace rdp;

/// Exit codes, pinned by the CLI tests: bad usage (unknown command, bad
/// or missing flags -- anything surfacing as std::invalid_argument) is 2
/// with a usage hint; runtime failures (I/O, gate regressions) are 1.
constexpr int kExitUsage = 2;

int usage(const char* program) {
  std::cerr
      << "usage: " << program
      << " <generate|realize|run|serve|obs|evaluate|sweep|bounds|repro|fuzz|perf>"
         " [--flags]\n\n"
         "  generate --kind=uniform|heavy-tailed|bimodal|lognormal|"
         "correlated|anti-correlated|independent|unit|profile:NAME\n"
         "           --n=N --m=M --alpha=A --seed=S --out=FILE\n"
         "  realize  --instance=FILE --noise=MODEL --seed=S --out=TRACE\n"
         "  run      --instance=FILE --strategy=SPEC [--trace=TRACE]\n"
         "           [--noise=MODEL --seed=S] [--svg=FILE] [--json=FILE]\n"
         "  serve    --arrivals=poisson|burst|trace [--rate=R]\n"
         "           [--tasks=N | --duration=S] [--strategy=SPEC]\n"
         "           [--kind=KIND --m=M --alpha=A | --instance=FILE]\n"
         "           [--noise=MODEL] [--seed=S] [--arrival-seed=S]\n"
         "           [--burst-boost=B --burst-on=T --burst-off=T]\n"
         "           [--trace=FILE] [--json=FILE]\n"
         "           [--adaptive [--epoch=N] [--drift=D] [--classes=C]]\n"
         "           [--slo=p99=X,backlog=Y[,p50=][,p90=][,window=SEC]\n"
         "                  [,sustain=K]]\n"
         "           (streaming dispatch under continuous arrivals;\n"
         "            reports response-time p50/p90/p99, queueing-delay\n"
         "            decomposition, and dispatched tasks/sec; --adaptive\n"
         "            estimates alpha online and re-places unadmitted\n"
         "            tasks when the estimate drifts past --drift;\n"
         "            --slo evaluates windowed burn rates and exits 1 on\n"
         "            a sustained violation)\n"
         "  obs      --timeline=FILE [--json=FILE] [--chrome=FILE]\n"
         "           [--jobs=N]\n"
         "           (post-process a --timeline-out flight recording into\n"
         "            per-task latency attribution (queue-wait vs service),\n"
         "            a per-machine utilization/stall report, and a\n"
         "            per-machine-lane Chrome trace)\n"
         "  evaluate --instance=FILE [--scenarios=K] [--seed=S]\n"
         "           [--scenario-kind=mixed|drifting|misreported]\n"
         "           [--alpha-to=A] [--true-alpha=A]\n"
         "  sweep    --instance=FILE --strategy=SPEC [--noise=MODEL]\n"
         "           [--trials=K] [--threads=T] [--seed=S] [--json=FILE]\n"
         "           [--ratios] (certified competitive ratios per trial)\n"
         "           [--cache-size=N] [--certify-budget=B] (with --ratios)\n"
         "  bounds   --m=M --alpha=A\n"
         "  repro    [--out=DIR] [--results=FILE] [--filter=EXPR]\n"
         "           [--jobs=N] [--seed=S] [--budget=B] [--force] [--list]\n"
         "           (regenerate the paper's tables/figures/theorem checks;\n"
         "            filter terms match artifact names, tags, or kinds,\n"
         "            e.g. --filter=smoke or --filter=table,fig1)\n"
         "  fuzz     [--seeds=N] [--jobs=K] [--start-seed=S]\n"
         "           [--max-n=N] [--max-m=M] [--report=FILE.jsonl]\n"
         "           [--no-shrink] [--scenario=default|drifting-alpha|ties]\n"
         "           (differential fuzzing of every sim/ dispatcher against\n"
         "            the schedule invariants in src/check/; failing seeds\n"
         "            are shrunk and written one JSONL line each)\n"
         "  perf     record  --in=FILE[,FILE...] [--name=N] [--out=FILE]\n"
         "           compare --baseline=FILE --current=FILE [--json=FILE]\n"
         "                   [--warn-only] [--enforce-exact] [--ignore-params]\n"
         "                   [--rel-tol=R] [--mad-mult=K]\n"
         "           gate    [--baselines=DIR] [--current-dir=DIR]\n"
         "                   [--json=FILE] [--warn-only] [--enforce-exact]\n"
         "           (merge the BenchRecords benches write to BENCH_*.json,\n"
         "            diff fresh runs against committed baselines in\n"
         "            bench/baselines/; see docs/PERFORMANCE.md)\n\n"
         "global:  --metrics-out=FILE (metrics snapshot JSON)\n"
         "         --trace-out=FILE   (Chrome trace_event; .jsonl for JSONL)\n"
         "         --sample-out=FILE  (JSONL metrics time series, one line\n"
         "                             per --sample-period=MS, default 1000)\n"
         "         --timeline-out=FILE (task-lifecycle flight recording,\n"
         "                             JSONL; cap with --timeline-capacity=N,\n"
         "                             default 4194304 events)\n"
         "         --debug-checks     (re-validate every dispatched schedule\n"
         "                             in experiment paths; also via\n"
         "                             RDP_DEBUG_CHECKS=1)\n\n"
         "strategies:";
  for (const std::string& spec : known_strategy_specs()) std::cerr << ' ' << spec;
  std::cerr << "\nnoise models: none uniform log-uniform two-point"
               " beta-centered always-high always-low\n";
  return kExitUsage;
}

NoiseModel noise_from_name(const std::string& name) {
  for (NoiseModel model : all_noise_models()) {
    if (to_string(model) == name) return model;
  }
  throw std::invalid_argument("unknown noise model '" + name + "'");
}

/// A count flag of `command`: below 1, or past `most`, is a usage
/// error (exit 2) that names the flag, raised before a negative value
/// can wrap through an unsigned cast into an absurd allocation.
std::size_t count_flag(const Args& args, const std::string& command,
                       const std::string& key, std::size_t fallback,
                       std::uint64_t most = std::numeric_limits<std::uint64_t>::max()) {
  if (!args.has(key)) return fallback;
  const std::int64_t value = args.get(key, std::int64_t{0});
  if (value < 1 || static_cast<std::uint64_t>(value) > most) {
    const std::string bound = most == std::numeric_limits<std::uint64_t>::max()
                                  ? ""
                                  : " no larger than " + std::to_string(most);
    throw std::invalid_argument(command + ": --" + key + " must be a positive integer" +
                                bound + " (got '" + args.get(key, std::string("")) + "')");
  }
  return static_cast<std::size_t>(value);
}

/// --m, the machine count, and --n, the task count: ids are 32 bits.
MachineId machines_flag(const Args& args, const std::string& command) {
  return static_cast<MachineId>(
      count_flag(args, command, "m", 8, std::numeric_limits<MachineId>::max()));
}

Instance generate_instance(const Args& args, const std::string& command,
                           std::size_t force_n = 0) {
  WorkloadParams params;
  params.num_tasks = force_n ? force_n
                             : count_flag(args, command, "n", 40,
                                          std::numeric_limits<TaskId>::max());
  params.num_machines = machines_flag(args, command);
  params.alpha = args.get("alpha", 1.5);
  params.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const std::string kind = args.get("kind", std::string("uniform"));
  if (kind == "uniform") return uniform_workload(params);
  if (kind == "heavy-tailed") return heavy_tailed_workload(params);
  if (kind == "bimodal") return bimodal_workload(params);
  if (kind == "lognormal") return lognormal_workload(params);
  if (kind == "correlated") return correlated_sizes_workload(params);
  if (kind == "anti-correlated") return anti_correlated_sizes_workload(params);
  if (kind == "independent") return independent_sizes_workload(params);
  if (kind == "unit") {
    return unit_tasks(params.num_tasks, params.num_machines, params.alpha);
  }
  if (kind.rfind("profile:", 0) == 0) {
    const WorkloadProfile& profile = profile_by_name(kind.substr(8));
    return profile.build(params.num_tasks, params.num_machines, profile.alpha,
                         params.seed);
  }
  throw std::invalid_argument("unknown workload kind '" + kind + "'");
}

int cmd_generate(const Args& args) {
  const Instance inst = generate_instance(args, "generate");
  const std::string out = args.get("out", std::string(""));
  if (out.empty()) throw std::invalid_argument("generate: --out is required");
  save_instance(out, inst);
  std::cout << "wrote " << inst.summary() << " to " << out << "\n";
  return EXIT_SUCCESS;
}

int cmd_realize(const Args& args) {
  const std::string in = args.get("instance", std::string(""));
  const std::string out = args.get("out", std::string(""));
  if (in.empty() || out.empty()) {
    throw std::invalid_argument("realize: --instance and --out are required");
  }
  const Instance inst = load_instance(in);
  const NoiseModel model =
      noise_from_name(args.get("noise", std::string("uniform")));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const Realization actual = realize(inst, model, seed);
  save_trace(out, make_synthetic_trace(inst, actual));
  std::cout << "wrote trace (" << inst.num_tasks() << " records, noise "
            << to_string(model) << ") to " << out << "\n";
  return EXIT_SUCCESS;
}

int cmd_run(const Args& args) {
  const std::string in = args.get("instance", std::string(""));
  if (in.empty()) throw std::invalid_argument("run: --instance is required");
  Instance inst = load_instance(in);

  Realization actual;
  const std::string trace_path = args.get("trace", std::string(""));
  if (!trace_path.empty()) {
    const ReplayableWorkload workload =
        workload_from_trace(load_trace(trace_path), inst.num_machines());
    inst = workload.instance;
    actual = workload.actual;
  } else {
    const NoiseModel model =
        noise_from_name(args.get("noise", std::string("uniform")));
    actual = realize(inst, model,
                     static_cast<std::uint64_t>(args.get("seed", std::int64_t{1})));
  }

  const TwoPhaseStrategy strategy =
      strategy_from_spec(args.get("strategy", std::string("lpt-no-restriction")));
  const StrategyResult result = strategy.run(inst, actual);
  const CertifiedCmax opt = certified_cmax(actual.actual, inst.num_machines());
  const ScheduleStats stats = compute_schedule_stats(inst, result.schedule);

  TextTable table({"quantity", "value"});
  table.add_row({"strategy", strategy.name()});
  table.add_row({"C_max", fmt(result.makespan, 4)});
  table.add_row({"OPT lower bound", fmt(opt.lower, 4) + (opt.exact ? " (exact)" : "")});
  table.add_row({"ratio", fmt(result.makespan / opt.lower, 4)});
  table.add_row({"Mem_max", fmt(result.max_memory, 2)});
  table.add_row({"max replicas", std::to_string(result.max_replication)});
  table.add_row({"diagnostics", to_string(stats)});
  std::cout << table.render();

  const std::string svg_path = args.get("svg", std::string(""));
  if (!svg_path.empty()) {
    save_svg(svg_path, inst, result.schedule);
    std::cout << "SVG written to " << svg_path << "\n";
  }
  const std::string json_path = args.get("json", std::string(""));
  if (!json_path.empty()) {
    ExperimentReport report("rdp-cli-run", "single strategy run");
    report.set_param("strategy", strategy.name());
    report.set_param("instance", in);
    Series& series = report.series(
        "result", {"makespan", "opt_lower", "ratio", "mem_max", "replicas"});
    series.add_row({result.makespan, opt.lower, result.makespan / opt.lower,
                    result.max_memory,
                    static_cast<double>(result.max_replication)});
    if (obs::MetricsRegistry* mx = obs::metrics()) {
      report.attach_metrics(mx->snapshot());
    }
    report.save_json(json_path);
    std::cout << "JSON written to " << json_path << "\n";
  }
  return EXIT_SUCCESS;
}

int cmd_sweep(const Args& args) {
  const std::string in = args.get("instance", std::string(""));
  if (in.empty()) throw std::invalid_argument("sweep: --instance is required");
  const Instance inst = load_instance(in);
  const TwoPhaseStrategy strategy =
      strategy_from_spec(args.get("strategy", std::string("lpt-no-restriction")));
  const NoiseModel model =
      noise_from_name(args.get("noise", std::string("uniform")));
  const auto trials =
      static_cast<std::size_t>(args.get("trials", std::int64_t{32}));
  const auto threads =
      static_cast<std::size_t>(args.get("threads", std::int64_t{0}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  if (trials == 0) throw std::invalid_argument("sweep: --trials must be >= 1");

  if (args.get("ratios", false)) {
    // Certified-ratio mode: every trial's makespan is divided by a
    // certified optimum, so denominators route through a batched,
    // canonicalizing cache (exact/certify.hpp) and solve in parallel.
    const auto cache_size = static_cast<std::size_t>(args.get(
        "cache-size",
        static_cast<std::int64_t>(CertifyEngine::kDefaultCacheCapacity)));
    CertifyEngine engine(cache_size);
    ThreadPool pool(threads);
    RatioExperimentConfig config;
    config.exact_node_budget = static_cast<std::uint64_t>(
        args.get("certify-budget", std::int64_t{2'000'000}));
    config.engine = &engine;
    config.pool = &pool;
    const std::vector<RatioTrial> series =
        measure_ratio_trials(strategy, inst, model, trials, seed, config);
    Welford ratios;
    std::size_t exact = 0;
    for (const RatioTrial& trial : series) {
      ratios.add(trial.ratio);
      exact += trial.exact_optimum ? 1 : 0;
    }
    const CertifyCacheStats cache = engine.cache_stats();

    TextTable table({"quantity", "value"});
    table.add_row({"strategy", strategy.name()});
    table.add_row({"noise", to_string(model)});
    table.add_row({"trials", std::to_string(trials)});
    table.add_row({"threads", std::to_string(pool.num_threads())});
    table.add_row({"mean ratio", fmt(ratios.mean(), 4)});
    table.add_row({"stddev ratio", fmt(ratios.stddev(), 4)});
    table.add_row({"worst ratio", fmt(ratios.max(), 4)});
    table.add_row({"exact optima", std::to_string(exact) + "/" +
                                       std::to_string(trials)});
    table.add_row({"cache hits", std::to_string(cache.hits)});
    table.add_row({"cache misses", std::to_string(cache.misses)});
    table.add_row({"cache hit rate", fmt(cache.hit_rate(), 4)});
    std::cout << table.render();

    const std::string json_path = args.get("json", std::string(""));
    if (!json_path.empty()) {
      ExperimentReport report("rdp-cli-sweep", "certified ratio sweep");
      report.set_param("strategy", strategy.name());
      report.set_param("noise", to_string(model));
      report.set_param("instance", in);
      Series& out = report.series(
          "ratios", {"seed", "makespan", "opt_lower", "ratio", "exact"});
      for (std::size_t t = 0; t < series.size(); ++t) {
        out.add_row({static_cast<double>(seed + t), series[t].algorithm_makespan,
                     series[t].optimal_lower_bound, series[t].ratio,
                     series[t].exact_optimum ? 1.0 : 0.0});
      }
      if (obs::MetricsRegistry* mx = obs::metrics()) {
        report.attach_metrics(mx->snapshot());
      }
      report.save_json(json_path);
      std::cout << "JSON written to " << json_path << "\n";
    }
    return EXIT_SUCCESS;
  }

  std::vector<std::uint64_t> seeds(trials);
  for (std::size_t t = 0; t < trials; ++t) seeds[t] = seed + t;
  const std::vector<SweepCell> grid =
      make_grid({inst.num_machines()}, {inst.alpha()}, seeds);

  // Phase 1 is deterministic: place once, re-dispatch per realization.
  const Placement placement = strategy.place(inst);
  std::vector<double> makespans(grid.size(), 0.0);
  ThreadPool pool(threads);
  run_sweep_parallel(pool, grid, [&](const SweepCell& cell) {
    const Realization actual = realize(inst, model, cell.seed);
    const DispatchResult dispatched =
        dispatch_with_rule(inst, placement, actual, strategy.rule());
    makespans[cell.index] = dispatched.schedule.makespan();
  });

  Welford agg;
  for (double v : makespans) agg.add(v);
  TextTable table({"quantity", "value"});
  table.add_row({"strategy", strategy.name()});
  table.add_row({"noise", to_string(model)});
  table.add_row({"trials", std::to_string(trials)});
  table.add_row({"threads", std::to_string(pool.num_threads())});
  table.add_row({"mean C_max", fmt(agg.mean(), 4)});
  table.add_row({"stddev C_max", fmt(agg.stddev(), 4)});
  table.add_row({"min C_max", fmt(agg.min(), 4)});
  table.add_row({"max C_max", fmt(agg.max(), 4)});
  std::cout << table.render();

  const std::string json_path = args.get("json", std::string(""));
  if (!json_path.empty()) {
    ExperimentReport report("rdp-cli-sweep", "parallel makespan sweep");
    report.set_param("strategy", strategy.name());
    report.set_param("noise", to_string(model));
    report.set_param("instance", in);
    Series& series = report.series("makespans", {"seed", "makespan"});
    for (const SweepCell& cell : grid) {
      series.add_row({static_cast<double>(cell.seed), makespans[cell.index]});
    }
    if (obs::MetricsRegistry* mx = obs::metrics()) {
      report.attach_metrics(mx->snapshot());
    }
    report.save_json(json_path);
    std::cout << "JSON written to " << json_path << "\n";
  }
  return EXIT_SUCCESS;
}

void write_text_file(const std::string& path, const std::string& content);

/// Range checks for the serve command's rate and duration flags (Args
/// already rejects partial and non-finite numbers): zero or negative is
/// a usage error (exit 2) before anything reaches a generator.
double serve_positive_flag(const Args& args, const std::string& key,
                           double fallback) {
  if (!args.has(key)) return fallback;
  const double value = args.get(key, fallback);
  if (!(value > 0.0)) {
    throw std::invalid_argument("serve: --" + key +
                                " must be a positive finite number (got '" +
                                args.get(key, std::string("")) + "')");
  }
  return value;
}

/// Prints the SLO verdict: a totals table plus one row per violating
/// window (capped -- a badly overloaded run can violate thousands).
void print_slo_report(const SloSpec& spec, const SloReport& report) {
  TextTable table({"slo quantity", "value"});
  table.add_row({"window (sim s)", fmt(spec.window_seconds, 3)});
  table.add_row({"sustain threshold", std::to_string(spec.sustain)});
  table.add_row({"windows", std::to_string(report.windows.size())});
  table.add_row({"violating windows", std::to_string(report.violating_windows)});
  table.add_row(
      {"max consecutive", std::to_string(report.max_consecutive_violations)});
  table.add_row({"burn rate", fmt(report.burn_rate, 4)});
  table.add_row(
      {"sustained violation", report.sustained_violation ? "YES" : "no"});
  std::cout << table.render();

  constexpr std::size_t kMaxPrinted = 10;
  std::size_t printed = 0;
  for (const SloWindow& win : report.windows) {
    if (!win.violated) continue;
    if (printed++ >= kMaxPrinted) {
      std::cout << "  ... " << (report.violating_windows - kMaxPrinted)
                << " more violating window(s)\n";
      break;
    }
    std::cout << "  violated [" << fmt(win.t0, 3) << ", " << fmt(win.t1, 3)
              << "): response p50/p90/p99 = " << fmt(win.response.p50, 4)
              << " / " << fmt(win.response.p90, 4) << " / "
              << fmt(win.response.p99, 4)
              << ", backlog watermark = " << fmt(win.backlog_watermark, 0)
              << "\n";
  }
}

JsonValue slo_report_json(const SloSpec& spec, const SloReport& report) {
  JsonObject obj;
  JsonObject targets;
  if (spec.p50 != kNoSloTarget) targets["p50"] = JsonValue(spec.p50);
  if (spec.p90 != kNoSloTarget) targets["p90"] = JsonValue(spec.p90);
  if (spec.p99 != kNoSloTarget) targets["p99"] = JsonValue(spec.p99);
  if (spec.backlog != kNoSloTarget) targets["backlog"] = JsonValue(spec.backlog);
  obj["targets"] = JsonValue(std::move(targets));
  obj["window_seconds"] = JsonValue(spec.window_seconds);
  obj["sustain"] = JsonValue(static_cast<unsigned long long>(spec.sustain));
  obj["violating_windows"] =
      JsonValue(static_cast<unsigned long long>(report.violating_windows));
  obj["max_consecutive_violations"] = JsonValue(
      static_cast<unsigned long long>(report.max_consecutive_violations));
  obj["burn_rate"] = JsonValue(report.burn_rate);
  obj["sustained_violation"] = JsonValue(report.sustained_violation);
  JsonArray windows;
  for (const SloWindow& win : report.windows) {
    JsonObject w;
    w["t0"] = JsonValue(win.t0);
    w["t1"] = JsonValue(win.t1);
    w["response"] = obs::histogram_summary_json(win.response);
    w["queue_wait"] = obs::histogram_summary_json(win.queue_wait);
    w["backlog_watermark"] = JsonValue(win.backlog_watermark);
    w["violated"] = JsonValue(win.violated);
    windows.emplace_back(std::move(w));
  }
  obj["windows"] = JsonValue(std::move(windows));
  return JsonValue(std::move(obj));
}

int cmd_serve(const Args& args) {
  const ArrivalModel model =
      arrival_model_from_name(args.get("arrivals", std::string("poisson")));
  const TwoPhaseStrategy strategy =
      strategy_from_spec(args.get("strategy", std::string("ls-group:2")));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  // Parsed before any work so a malformed spec is a usage error (exit 2)
  // rather than a wasted run.
  std::optional<SloSpec> slo;
  if (args.has("slo")) slo = parse_slo_spec(args.get("slo", std::string("")));

  std::vector<Time> arrivals;
  std::optional<Instance> inst;
  Realization actual;

  if (model == ArrivalModel::kTrace) {
    const std::string trace_path = args.get("trace", std::string(""));
    if (trace_path.empty()) {
      throw std::invalid_argument("serve: --arrivals=trace requires --trace=FILE");
    }
    const Trace trace = load_trace(trace_path);
    arrivals = arrivals_from_trace(trace);
    ReplayableWorkload workload = workload_from_trace(trace, machines_flag(args, "serve"));
    inst.emplace(std::move(workload.instance));
    actual = std::move(workload.actual);
  } else {
    ArrivalParams params;
    params.model = model;
    params.rate = serve_positive_flag(args, "rate", 100.0);
    params.burst_boost = serve_positive_flag(args, "burst-boost", 4.0);
    params.burst_on = serve_positive_flag(args, "burst-on", 1.0);
    params.burst_off = serve_positive_flag(args, "burst-off", 4.0);
    if (model == ArrivalModel::kBurst) {
      const double feasible =
          (params.burst_on + params.burst_off) / params.burst_on;
      if (params.burst_boost > feasible) {
        throw std::invalid_argument(
            "serve: --burst-boost=" + std::to_string(params.burst_boost) +
            " is infeasible for MMPP-2 (must be <= (on+off)/on = " +
            std::to_string(feasible) + ")");
      }
    }
    params.seed = static_cast<std::uint64_t>(args.get(
        "arrival-seed", static_cast<std::int64_t>(seed + 1)));
    if (args.has("duration") && args.has("tasks")) {
      throw std::invalid_argument("serve: pass --duration or --tasks, not both");
    }
    if (args.has("duration")) {
      arrivals = generate_arrivals_until(
          params, serve_positive_flag(args, "duration", 10.0));
      if (arrivals.empty()) {
        throw std::invalid_argument(
            "serve: no arrivals inside --duration (raise --rate or --duration)");
      }
    } else {
      arrivals = generate_arrivals(params, count_flag(args, "serve", "tasks", 2000));
    }
    const std::string instance_path = args.get("instance", std::string(""));
    if (!instance_path.empty()) {
      // A file instance acts as the task-mix template; it is cycled to
      // cover however many tasks the arrival process produced.
      inst.emplace(cycle_instance(load_instance(instance_path), arrivals.size()));
    } else {
      inst.emplace(generate_instance(args, "serve", arrivals.size()));
    }
    actual = realize(*inst, noise_from_name(args.get("noise", std::string("uniform"))),
                     seed);
  }

  if (args.get("adaptive", false)) {
    AdaptiveServeOptions opts;
    opts.epoch_tasks = count_flag(args, "serve", "epoch", opts.epoch_tasks);
    opts.drift_threshold =
        serve_positive_flag(args, "drift", opts.drift_threshold);
    opts.adapt.estimator.num_classes =
        count_flag(args, "serve", "classes", opts.adapt.estimator.num_classes);
    const auto wall_start = std::chrono::steady_clock::now();
    const AdaptiveServeResult result = serve_adaptive(*inst, actual, arrivals, opts);
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    const ServeStats stats = compute_serve_stats(result.schedule, arrivals);
    MachineId min_degree = inst->num_machines();
    MachineId max_degree = 0;
    for (const AdaptiveEpoch& epoch : result.epochs) {
      min_degree = std::min(min_degree, epoch.min_degree);
      max_degree = std::max(max_degree, epoch.max_degree);
    }
    TextTable table({"quantity", "value"});
    table.add_row({"arrivals", arrival_model_name(model)});
    table.add_row({"strategy", "adaptive-group"});
    table.add_row({"tasks", std::to_string(inst->num_tasks())});
    table.add_row({"machines", std::to_string(inst->num_machines())});
    table.add_row({"epochs", std::to_string(result.epochs.size())});
    table.add_row({"replans (drift)", std::to_string(result.replans)});
    table.add_row({"final alpha-hat", fmt(result.final_alpha_hat, 4)});
    table.add_row({"degree range",
                   std::to_string(min_degree) + " .. " + std::to_string(max_degree)});
    table.add_row({"peak backlog", std::to_string(result.peak_backlog)});
    table.add_row({"horizon (sim s)", fmt(stats.last_finish, 3)});
    table.add_row({"response p50/p90/p99",
                   fmt(stats.response.p50, 4) + " / " +
                       fmt(stats.response.p90, 4) + " / " +
                       fmt(stats.response.p99, 4)});
    table.add_row({"queue wait p50/p90/p99",
                   fmt(stats.queue_wait.p50, 4) + " / " +
                       fmt(stats.queue_wait.p90, 4) + " / " +
                       fmt(stats.queue_wait.p99, 4)});
    table.add_row({"mean response", fmt(stats.response.mean, 4)});
    table.add_row({"wall seconds", fmt(wall_seconds, 4)});
    std::cout << table.render();

    std::optional<SloReport> slo_report;
    if (slo) {
      slo_report = evaluate_slo(result.schedule, arrivals, *slo);
      print_slo_report(*slo, *slo_report);
    }

    const std::string json_path = args.get("json", std::string(""));
    if (!json_path.empty()) {
      JsonObject obj;
      obj["arrivals"] = JsonValue(std::string(arrival_model_name(model)));
      obj["strategy"] = JsonValue(std::string("adaptive-group"));
      obj["tasks"] =
          JsonValue(static_cast<unsigned long long>(inst->num_tasks()));
      obj["machines"] =
          JsonValue(static_cast<unsigned long long>(inst->num_machines()));
      obj["peak_backlog"] =
          JsonValue(static_cast<unsigned long long>(result.peak_backlog));
      obj["horizon"] = JsonValue(stats.last_finish);
      obj["makespan"] = JsonValue(result.makespan);
      obj["wall_seconds"] = JsonValue(wall_seconds);
      JsonObject adaptive;
      adaptive["epochs"] =
          JsonValue(static_cast<unsigned long long>(result.epochs.size()));
      adaptive["replans"] =
          JsonValue(static_cast<unsigned long long>(result.replans));
      adaptive["final_alpha_hat"] = JsonValue(result.final_alpha_hat);
      adaptive["min_degree"] =
          JsonValue(static_cast<unsigned long long>(min_degree));
      adaptive["max_degree"] =
          JsonValue(static_cast<unsigned long long>(max_degree));
      obj["adaptive"] = JsonValue(std::move(adaptive));
      // Full histogram summaries (count/mean/stddev/min/max/sum plus the
      // quantiles) -- the hand-picked four-field objects predating
      // histogram_summary_json dropped everything downstream dashboards
      // needed for weighting and rollups.
      obj["response"] = obs::histogram_summary_json(stats.response);
      obj["queue_wait"] = obs::histogram_summary_json(stats.queue_wait);
      obj["service"] = obs::histogram_summary_json(stats.service);
      if (slo_report) obj["slo"] = slo_report_json(*slo, *slo_report);
      write_text_file(json_path, JsonValue(std::move(obj)).dump(2) + "\n");
      std::cout << "JSON written to " << json_path << "\n";
    }
    if (slo_report && slo_report->sustained_violation) {
      std::cout << "slo: sustained violation ("
                << slo_report->max_consecutive_violations
                << " consecutive windows)\n";
      return EXIT_FAILURE;
    }
    return EXIT_SUCCESS;
  }

  const Placement placement = strategy.place(*inst);
  const std::vector<TaskId> priority = make_priority(*inst, strategy.rule());
  const ServeReport report =
      run_serve(*inst, placement, actual, priority, arrivals);

  // Offered load over the arrival window (the horizon also counts the
  // final drain, which would understate the rate).
  const Time last_arrival =
      arrivals.empty() ? Time{0} : *std::max_element(arrivals.begin(), arrivals.end());
  const double offered =
      last_arrival > 0 ? static_cast<double>(report.tasks) / last_arrival : 0;
  TextTable table({"quantity", "value"});
  table.add_row({"arrivals", arrival_model_name(model)});
  table.add_row({"strategy", strategy.name()});
  table.add_row({"tasks", std::to_string(report.tasks)});
  table.add_row({"machines", std::to_string(report.machines)});
  table.add_row({"offered rate (sim tasks/s)", fmt(offered, 2)});
  table.add_row({"peak backlog", std::to_string(report.peak_backlog)});
  table.add_row({"horizon (sim s)", fmt(report.horizon, 3)});
  table.add_row({"response p50/p90/p99",
                 fmt(report.stats.response.p50, 4) + " / " +
                     fmt(report.stats.response.p90, 4) + " / " +
                     fmt(report.stats.response.p99, 4)});
  table.add_row({"queue wait p50/p90/p99",
                 fmt(report.stats.queue_wait.p50, 4) + " / " +
                     fmt(report.stats.queue_wait.p90, 4) + " / " +
                     fmt(report.stats.queue_wait.p99, 4)});
  table.add_row({"mean response", fmt(report.stats.response.mean, 4)});
  table.add_row({"mean service", fmt(report.stats.service.mean, 4)});
  table.add_row({"wall seconds", fmt(report.wall_seconds, 4)});
  table.add_row({"dispatched tasks/sec (wall)", fmt(report.dispatched_per_sec, 0)});
  std::cout << table.render();

  std::optional<SloReport> slo_report;
  if (slo) {
    slo_report = evaluate_slo(report.schedule, arrivals, *slo);
    print_slo_report(*slo, *slo_report);
  }

  const std::string json_path = args.get("json", std::string(""));
  if (!json_path.empty()) {
    JsonObject obj;
    obj["arrivals"] = JsonValue(std::string(arrival_model_name(model)));
    obj["strategy"] = JsonValue(strategy.name());
    obj["tasks"] = JsonValue(static_cast<unsigned long long>(report.tasks));
    obj["machines"] = JsonValue(static_cast<unsigned long long>(report.machines));
    obj["peak_backlog"] =
        JsonValue(static_cast<unsigned long long>(report.peak_backlog));
    obj["horizon"] = JsonValue(report.horizon);
    obj["offered_rate"] = JsonValue(offered);
    obj["wall_seconds"] = JsonValue(report.wall_seconds);
    obj["dispatched_per_sec"] = JsonValue(report.dispatched_per_sec);
    // Full summaries for every distribution (see the adaptive branch):
    // the old hand-built objects omitted count/stddev/min/max/sum and,
    // for service, even p50/p90.
    obj["response"] = obs::histogram_summary_json(report.stats.response);
    obj["queue_wait"] = obs::histogram_summary_json(report.stats.queue_wait);
    obj["service"] = obs::histogram_summary_json(report.stats.service);
    if (slo_report) obj["slo"] = slo_report_json(*slo, *slo_report);
    write_text_file(json_path, JsonValue(std::move(obj)).dump(2) + "\n");
    std::cout << "JSON written to " << json_path << "\n";
  }
  if (slo_report && slo_report->sustained_violation) {
    std::cout << "slo: sustained violation ("
              << slo_report->max_consecutive_violations
              << " consecutive windows)\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}

/// `rdp_cli obs`: post-process a flight recording (--timeline-out) into
/// per-task latency attribution, a per-machine utilization/stall report,
/// and optionally a per-machine-lane Chrome trace.
///
/// Bit-deterministic across --jobs by construction: the per-task
/// reduction and the attribution histograms run sequentially in task-id
/// order, and the parallel per-machine pass only writes its own machine's
/// index-addressed slots over a CSR built sequentially -- no accumulation
/// order depends on thread count (pinned by ctest obs_determinism).
int cmd_obs(const Args& args) {
  const std::string timeline_path = args.get("timeline", std::string(""));
  if (timeline_path.empty()) {
    throw std::invalid_argument("obs: --timeline=FILE is required");
  }
  const auto jobs = static_cast<std::size_t>(args.get("jobs", std::int64_t{0}));

  obs::TimelineMeta meta;
  const std::vector<obs::TimelineEvent> events =
      obs::load_timeline(timeline_path, &meta);

  // Pass 1 (sequential): fold the event stream into per-task columns.
  // Later events win, matching "the surviving attempt" semantics of the
  // failure dispatcher's re-emission.
  std::size_t n = 0;
  MachineId m = 0;
  for (const obs::TimelineEvent& e : events) {
    if (e.task != obs::kTimelineNone) {
      n = std::max(n, static_cast<std::size_t>(e.task) + 1);
    }
    if (e.machine != obs::kTimelineNone) {
      m = std::max(m, static_cast<MachineId>(e.machine + 1));
    }
  }
  constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> arrive(n, kUnset), eligible(n, kUnset);
  std::vector<double> start(n, kUnset), finish(n, kUnset);
  std::vector<MachineId> machine_of(n, kNoMachine);
  std::vector<std::uint32_t> refetches(n, 0);
  std::uint64_t failures = 0;
  double horizon = 0.0;
  for (const obs::TimelineEvent& e : events) {
    horizon = std::max(horizon, e.when);
    const TaskId j = e.task;
    switch (e.kind) {
      case obs::TimelineEventKind::kArrive:
      case obs::TimelineEventKind::kAdmit:
        if (j != obs::kTimelineNone) arrive[j] = e.when;
        break;
      case obs::TimelineEventKind::kEligible:
        if (j != obs::kTimelineNone) eligible[j] = e.when;
        break;
      case obs::TimelineEventKind::kStart:
        if (j != obs::kTimelineNone) {
          start[j] = e.when;
          if (e.machine != obs::kTimelineNone) machine_of[j] = e.machine;
        }
        break;
      case obs::TimelineEventKind::kFinish:
        if (j != obs::kTimelineNone) finish[j] = e.when;
        break;
      case obs::TimelineEventKind::kRefetch:
        if (j != obs::kTimelineNone) ++refetches[j];
        break;
      case obs::TimelineEventKind::kFailure:
        ++failures;
        break;
    }
  }

  // Pass 2 (sequential, task-id order): latency attribution. Transfer is
  // the arrive -> eligible gap (data movement before the task could run;
  // only dispatchers with an admission boundary emit it), queue-wait the
  // remainder up to start, service the time on the machine.
  obs::LocalHistogram response_hist, queue_wait_hist, service_hist, transfer_hist;
  std::uint64_t attributed = 0, refetched_tasks = 0;
  for (TaskId j = 0; j < n; ++j) {
    if (refetches[j] > 0) ++refetched_tasks;
    if (std::isnan(start[j]) || std::isnan(finish[j])) continue;
    service_hist.observe(finish[j] - start[j]);
    if (std::isnan(arrive[j])) continue;
    ++attributed;
    response_hist.observe(finish[j] - arrive[j]);
    const double ready = std::isnan(eligible[j]) ? arrive[j] : eligible[j];
    queue_wait_hist.observe(start[j] - ready);
    if (!std::isnan(eligible[j])) transfer_hist.observe(eligible[j] - arrive[j]);
  }

  // Pass 3 (parallel over machines): per-machine busy/stall via a CSR of
  // tasks grouped by machine. Each index writes only its own slots.
  std::vector<std::uint32_t> deg(m + 1, 0);
  for (TaskId j = 0; j < n; ++j) {
    if (machine_of[j] != kNoMachine && !std::isnan(start[j]) &&
        !std::isnan(finish[j])) {
      ++deg[machine_of[j] + 1];
    }
  }
  for (MachineId i = 0; i < m; ++i) deg[i + 1] += deg[i];
  std::vector<TaskId> csr(deg[m]);
  {
    std::vector<std::uint32_t> fill(deg.begin(), deg.end() - 1);
    for (TaskId j = 0; j < n; ++j) {
      if (machine_of[j] != kNoMachine && !std::isnan(start[j]) &&
          !std::isnan(finish[j])) {
        csr[fill[machine_of[j]]++] = j;
      }
    }
  }
  std::vector<double> busy(m, 0.0);
  std::vector<std::uint64_t> tasks_on(m, 0);
  ThreadPool pool(jobs);
  parallel_for_each_index(pool, m, [&](std::size_t i) {
    double total = 0.0;
    for (std::uint32_t k = deg[i]; k < deg[i + 1]; ++k) {
      const TaskId j = csr[k];
      total += finish[j] - start[j];
    }
    busy[i] = total;
    tasks_on[i] = deg[i + 1] - deg[i];
  });

  TextTable table({"quantity", "value"});
  table.add_row({"timeline", timeline_path});
  table.add_row({"events", std::to_string(events.size())});
  table.add_row({"dropped", std::to_string(meta.dropped)});
  table.add_row({"tasks", std::to_string(n)});
  table.add_row({"machines", std::to_string(m)});
  table.add_row({"horizon (sim s)", fmt(horizon, 3)});
  table.add_row({"attributed tasks", std::to_string(attributed)});
  const obs::LocalHistogram::Summary response = response_hist.summary();
  const obs::LocalHistogram::Summary queue_wait = queue_wait_hist.summary();
  const obs::LocalHistogram::Summary service = service_hist.summary();
  const obs::LocalHistogram::Summary transfer = transfer_hist.summary();
  table.add_row({"response p50/p90/p99", fmt(response.p50, 4) + " / " +
                                             fmt(response.p90, 4) + " / " +
                                             fmt(response.p99, 4)});
  table.add_row({"queue wait p50/p90/p99", fmt(queue_wait.p50, 4) + " / " +
                                               fmt(queue_wait.p90, 4) + " / " +
                                               fmt(queue_wait.p99, 4)});
  table.add_row({"service p50/p90/p99", fmt(service.p50, 4) + " / " +
                                            fmt(service.p90, 4) + " / " +
                                            fmt(service.p99, 4)});
  if (transfer.count > 0) {
    table.add_row({"transfer p50/p90/p99", fmt(transfer.p50, 4) + " / " +
                                               fmt(transfer.p90, 4) + " / " +
                                               fmt(transfer.p99, 4)});
  }
  table.add_row({"refetched tasks", std::to_string(refetched_tasks)});
  table.add_row({"machine failures", std::to_string(failures)});
  std::cout << table.render();

  TextTable machines({"machine", "tasks", "busy", "stall", "utilization"});
  for (MachineId i = 0; i < m; ++i) {
    const double stall = horizon - busy[i];
    machines.add_row({std::to_string(i), std::to_string(tasks_on[i]),
                      fmt(busy[i], 3), fmt(stall, 3),
                      fmt(horizon > 0 ? busy[i] / horizon : 0.0, 4)});
  }
  std::cout << machines.render();

  const std::string json_path = args.get("json", std::string(""));
  if (!json_path.empty()) {
    JsonObject obj;
    obj["timeline"] = JsonValue(timeline_path);
    obj["events"] = JsonValue(static_cast<unsigned long long>(events.size()));
    obj["dropped"] = JsonValue(static_cast<unsigned long long>(meta.dropped));
    obj["tasks"] = JsonValue(static_cast<unsigned long long>(n));
    obj["machines"] = JsonValue(static_cast<unsigned long long>(m));
    obj["horizon"] = JsonValue(horizon);
    obj["attributed_tasks"] =
        JsonValue(static_cast<unsigned long long>(attributed));
    obj["refetched_tasks"] =
        JsonValue(static_cast<unsigned long long>(refetched_tasks));
    obj["machine_failures"] =
        JsonValue(static_cast<unsigned long long>(failures));
    obj["response"] = obs::histogram_summary_json(response);
    obj["queue_wait"] = obs::histogram_summary_json(queue_wait);
    obj["service"] = obs::histogram_summary_json(service);
    obj["transfer"] = obs::histogram_summary_json(transfer);
    JsonArray machine_rows;
    for (MachineId i = 0; i < m; ++i) {
      JsonObject row;
      row["machine"] = JsonValue(static_cast<unsigned long long>(i));
      row["tasks"] = JsonValue(static_cast<unsigned long long>(tasks_on[i]));
      row["busy"] = JsonValue(busy[i]);
      row["stall"] = JsonValue(horizon - busy[i]);
      row["utilization"] = JsonValue(horizon > 0 ? busy[i] / horizon : 0.0);
      machine_rows.emplace_back(std::move(row));
    }
    obj["per_machine"] = JsonValue(std::move(machine_rows));
    write_text_file(json_path, JsonValue(std::move(obj)).dump(2) + "\n");
    std::cout << "JSON written to " << json_path << "\n";
  }

  const std::string chrome_path = args.get("chrome", std::string(""));
  if (!chrome_path.empty()) {
    // Per-machine-lane Chrome trace over *simulated* time: tid = machine,
    // one 'X' span per task (ts/dur in microseconds of sim time), 'i'
    // instants for failures (machine lane) and refetches (the task's
    // eventual machine, lane 0 when it never ran).
    std::string buf = "{\"traceEvents\":[";
    bool first = true;
    auto comma = [&] {
      if (!first) buf += ",\n";
      first = false;
    };
    for (TaskId j = 0; j < n; ++j) {
      if (machine_of[j] == kNoMachine || std::isnan(start[j]) ||
          std::isnan(finish[j])) {
        continue;
      }
      comma();
      buf += "{\"name\":\"task " + std::to_string(j) +
             "\",\"cat\":\"task\",\"ph\":\"X\",\"ts\":" +
             JsonValue(start[j] * 1e6).dump(-1) + ",\"dur\":" +
             JsonValue((finish[j] - start[j]) * 1e6).dump(-1) +
             ",\"pid\":1,\"tid\":" + std::to_string(machine_of[j]) +
             ",\"args\":{\"task\":" + std::to_string(j) + "}}";
    }
    for (const obs::TimelineEvent& e : events) {
      if (e.kind == obs::TimelineEventKind::kFailure) {
        comma();
        const std::uint32_t lane = e.machine == obs::kTimelineNone ? 0 : e.machine;
        buf += "{\"name\":\"failure\",\"cat\":\"failure\",\"ph\":\"i\",\"ts\":" +
               JsonValue(e.when * 1e6).dump(-1) + ",\"pid\":1,\"tid\":" +
               std::to_string(lane) + ",\"s\":\"t\"}";
      } else if (e.kind == obs::TimelineEventKind::kRefetch) {
        comma();
        const MachineId lane =
            e.task != obs::kTimelineNone && machine_of[e.task] != kNoMachine
                ? machine_of[e.task]
                : 0;
        buf += "{\"name\":\"refetch\",\"cat\":\"refetch\",\"ph\":\"i\",\"ts\":" +
               JsonValue(e.when * 1e6).dump(-1) + ",\"pid\":1,\"tid\":" +
               std::to_string(lane) + ",\"s\":\"t\"}";
      }
    }
    buf += "],\"displayTimeUnit\":\"ms\"}\n";
    write_text_file(chrome_path, buf);
    std::cout << "Chrome trace written to " << chrome_path << "\n";
  }
  return EXIT_SUCCESS;
}

int cmd_evaluate(const Args& args) {
  const std::string in = args.get("instance", std::string(""));
  if (in.empty()) throw std::invalid_argument("evaluate: --instance is required");
  const Instance inst = load_instance(in);
  const auto count =
      static_cast<std::size_t>(args.get("scenarios", std::int64_t{12}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const std::string kind = args.get("scenario-kind", std::string("mixed"));
  ScenarioSet scenarios;
  if (kind == "mixed") {
    scenarios = make_mixed_scenarios(inst, count, seed);
  } else if (kind == "drifting") {
    scenarios = make_drifting_scenarios(inst, count, seed, inst.alpha(),
                                        args.get("alpha-to", 2.0 * inst.alpha()));
  } else if (kind == "misreported") {
    scenarios = make_misreported_scenarios(inst, count, seed,
                                           args.get("true-alpha", 2.0 * inst.alpha()));
  } else {
    throw std::invalid_argument(
        "evaluate: --scenario-kind must be mixed, drifting, or misreported (got '" +
        kind + "')");
  }

  std::vector<TwoPhaseStrategy> strategies =
      paper_strategy_family(inst.num_machines());
  strategies.push_back(make_adaptive_group());
  TextTable table({"strategy", "mean", "worst", "worst regret"});
  for (const TwoPhaseStrategy& s : strategies) {
    const ScenarioEvaluation eval = evaluate_scenarios(s, inst, scenarios);
    table.add_row({eval.strategy_name, fmt(eval.mean_makespan, 2),
                   fmt(eval.worst_makespan, 2), fmt(eval.worst_regret, 2)});
  }
  std::cout << table.render();
  const std::size_t pick = select_min_max(strategies, inst, scenarios);
  std::cout << "min-max pick: " << strategies[pick].name() << "\n";
  return EXIT_SUCCESS;
}

int cmd_bounds(const Args& args) {
  const auto m = static_cast<MachineId>(args.get("m", std::int64_t{8}));
  const double alpha = args.get("alpha", 1.5);
  TextTable table({"replication", "guarantee", "source"});
  table.add_row({"|M_j|=1 (lower bound)",
                 fmt(thm1_no_replication_lower_bound(alpha, m)), "Theorem 1"});
  table.add_row({"|M_j|=1 (LPT-NoChoice)", fmt(thm2_lpt_no_choice(alpha, m)),
                 "Theorem 2"});
  for (MachineId r : feasible_replication_degrees(m)) {
    if (r == 1 || r == m) continue;
    table.add_row({"|M_j|=" + std::to_string(r) + " (LS-Group)",
                   fmt(thm4_ls_group(alpha, m, m / r)), "Theorem 4"});
  }
  table.add_row({"|M_j|=m (LPT-NoRestriction)",
                 fmt(thm3_lpt_no_restriction(alpha, m)), "Theorem 3 + Graham"});
  std::cout << "m=" << m << " alpha=" << alpha << "\n" << table.render();
  return EXIT_SUCCESS;
}

int cmd_repro(const Args& args) {
  if (args.get("list", false)) {
    TextTable table({"artifact", "reproduces", "kind", "tags"});
    for (const repro::Artifact& artifact : repro::paper_artifacts()) {
      std::string tags;
      for (const std::string& t : artifact.tags) {
        tags += (tags.empty() ? "" : ",") + t;
      }
      table.add_row({artifact.name, artifact.paper_ref,
                     repro::to_string(artifact.kind), tags});
    }
    std::cout << table.render();
    return EXIT_SUCCESS;
  }

  repro::ReproOptions options;
  options.out_dir = args.get("out", std::string("artifacts"));
  options.results_path = args.get("results", std::string("docs/RESULTS.md"));
  options.filter = args.get("filter", std::string(""));
  options.jobs = static_cast<std::size_t>(args.get("jobs", std::int64_t{0}));
  options.seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  options.node_budget =
      static_cast<std::uint64_t>(args.get("budget", std::int64_t{400'000}));
  options.force = args.get("force", false);
  options.log = &std::cout;

  const repro::ReproSummary summary = repro::run_repro(options);

  TextTable table({"quantity", "value"});
  table.add_row({"selected", std::to_string(summary.selected)});
  table.add_row({"generated", std::to_string(summary.generated)});
  table.add_row({"cached", std::to_string(summary.cached)});
  table.add_row({"theorem checks", std::to_string(summary.checks)});
  table.add_row({"bound violations", std::to_string(summary.violations)});
  table.add_row({"manifest", summary.manifest_path});
  table.add_row({"RESULTS.md", summary.results_written ? "written" : "skipped"});
  std::cout << table.render();
  return summary.violations == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

int cmd_fuzz(const Args& args) {
  check::FuzzOptions options;
  options.seeds = static_cast<std::size_t>(args.get("seeds", std::int64_t{500}));
  options.jobs = static_cast<std::size_t>(args.get("jobs", std::int64_t{1}));
  options.start_seed =
      static_cast<std::uint64_t>(args.get("start-seed", std::int64_t{1}));
  options.gen.max_tasks =
      static_cast<std::size_t>(args.get("max-n", std::int64_t{24}));
  options.gen.max_machines =
      static_cast<MachineId>(args.get("max-m", std::int64_t{6}));
  options.shrink = !args.get("no-shrink", false);
  options.gen.scenario = check::fuzz_scenario_from_name(
      args.get("scenario", std::string("default")));
  options.log = &std::cout;
  if (options.seeds == 0) throw std::invalid_argument("fuzz: --seeds must be >= 1");

  const check::FuzzSummary summary = check::run_fuzz(options);

  const std::string report_path = args.get("report", std::string(""));
  if (!report_path.empty()) {
    check::save_jsonl_report(report_path, summary.failures);
    std::cout << "JSONL report (" << summary.failures.size()
              << " failures) written to " << report_path << "\n";
  }

  TextTable table({"quantity", "value"});
  table.add_row({"seeds", std::to_string(summary.cases)});
  table.add_row({"cross-checks", std::to_string(summary.checks)});
  table.add_row({"checks per seed", std::to_string(check::checks_per_case())});
  table.add_row({"failures", std::to_string(summary.failures.size())});
  std::cout << table.render();
  return summary.failures.empty() ? EXIT_SUCCESS : EXIT_FAILURE;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string item = list.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) items.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perf: cannot open " + path);
  out << content;
  if (!out) throw std::runtime_error("perf: write failed for " + path);
}

perf::CompareOptions compare_options_from(const Args& args) {
  perf::CompareOptions options;
  options.timing_rel_tolerance =
      args.get("rel-tol", options.timing_rel_tolerance);
  options.mad_multiplier = args.get("mad-mult", options.mad_multiplier);
  if (options.timing_rel_tolerance < 0 || options.mad_multiplier < 0) {
    throw std::invalid_argument("perf: --rel-tol and --mad-mult must be >= 0");
  }
  options.ignore_params = args.get("ignore-params", false);
  return options;
}

/// `perf record`: merge bench records (min-of-k over several files) into
/// a committed baseline record.
int cmd_perf_record(const Args& args) {
  std::vector<std::string> inputs = split_csv(args.get("in", std::string("")));
  // Files may also be given as positionals after `record`.
  const std::vector<std::string>& pos = args.positionals();
  inputs.insert(inputs.end(), pos.begin() + 1, pos.end());
  if (inputs.empty()) {
    throw std::invalid_argument(
        "perf record: --in=FILE[,FILE...] is required (repeats of the same "
        "benchmark merge min-of-k)");
  }
  std::vector<perf::BenchRecord> runs;
  runs.reserve(inputs.size());
  for (const std::string& path : inputs) runs.push_back(perf::load_bench_file(path));
  perf::BenchRecord record = perf::merge_repeats(runs);
  if (args.has("name")) record.name = args.get("name", record.name);
  record.git_sha = repro::read_git_sha(".");
  record.host = perf::host_fingerprint();

  const std::string out =
      args.get("out", "bench/baselines/" + record.name + ".json");
  std::filesystem::path parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  record.save(out);
  std::cout << "recorded " << record.name << " (" << record.metrics.size()
            << " metrics, " << inputs.size() << " run(s), params "
            << (record.params_hash.empty() ? "-" : record.params_hash)
            << ") to " << out << "\n";
  return EXIT_SUCCESS;
}

/// `perf compare`: diff one fresh run against one baseline.
int cmd_perf_compare(const Args& args) {
  const std::string baseline_path = args.get("baseline", std::string(""));
  const std::string current_path = args.get("current", std::string(""));
  if (baseline_path.empty() || current_path.empty()) {
    throw std::invalid_argument(
        "perf compare: --baseline=FILE and --current=FILE are required");
  }
  const perf::BenchRecord baseline = perf::load_bench_file(baseline_path);
  const perf::BenchRecord current = perf::load_bench_file(current_path);
  const perf::CompareResult result =
      perf::compare_records(baseline, current, compare_options_from(args));

  std::cout << result.render_table();
  const std::string json_path = args.get("json", std::string(""));
  if (!json_path.empty()) {
    write_text_file(json_path, result.to_json().dump(2) + "\n");
    std::cout << "verdict written to " << json_path << "\n";
  }
  const bool warn_only = args.get("warn-only", false);
  const bool enforce_exact = args.get("enforce-exact", false);
  if (warn_only && result.schema_broken()) {
    std::cout << "params drifted or a gated metric vanished; failing "
                 "despite --warn-only\n";
    return EXIT_FAILURE;
  }
  if (warn_only && enforce_exact && result.exact_regressed()) {
    std::cout << "enforce-exact: exact-noise-class metric regressed; "
                 "failing despite --warn-only\n";
    return EXIT_FAILURE;
  }
  if (result.regressed() && warn_only) {
    std::cout << "warn-only: regression reported but exiting 0\n";
  }
  return result.regressed() && !warn_only ? EXIT_FAILURE : EXIT_SUCCESS;
}

/// `perf gate`: compare every committed baseline against the matching
/// fresh output (by the baseline's recorded `source` filename) under
/// --current-dir. A baseline whose fresh output is missing is a hard
/// failure even under --warn-only: the gate must notice when a benchmark
/// silently stops running. --enforce-exact additionally keeps
/// "exact"-noise-class metrics (cache hit counts, iteration counts,
/// bit-mismatch counters -- deterministic by contract) enforcing under
/// --warn-only, so shared-runner timing noise is tolerated but a
/// determinism or algorithmic-shape change still fails the gate.
int cmd_perf_gate(const Args& args) {
  const std::string baselines_dir =
      args.get("baselines", std::string("bench/baselines"));
  const std::string current_dir = args.get("current-dir", std::string("."));
  const bool warn_only = args.get("warn-only", false);
  const bool enforce_exact = args.get("enforce-exact", false);
  const perf::CompareOptions options = compare_options_from(args);

  std::vector<std::string> baseline_files;
  if (!std::filesystem::is_directory(baselines_dir)) {
    throw std::runtime_error("perf gate: no baselines directory at " +
                             baselines_dir);
  }
  for (const auto& entry : std::filesystem::directory_iterator(baselines_dir)) {
    if (entry.path().extension() == ".json") {
      baseline_files.push_back(entry.path().string());
    }
  }
  std::sort(baseline_files.begin(), baseline_files.end());
  if (baseline_files.empty()) {
    throw std::runtime_error("perf gate: no *.json baselines in " +
                             baselines_dir);
  }

  bool any_regressed = false;
  bool any_exact_regressed = false;
  bool any_error = false;
  JsonArray results;
  for (const std::string& path : baseline_files) {
    const perf::BenchRecord baseline = perf::load_bench_file(path);
    const std::filesystem::path current_path =
        std::filesystem::path(current_dir) / baseline.source;
    if (!std::filesystem::exists(current_path)) {
      std::cout << "perf gate: MISSING " << current_path.string()
                << " (baseline " << path << " has nothing to compare against)\n";
      JsonObject missing;
      missing["bench"] = baseline.name;
      missing["baseline_source"] = path;
      missing["error"] = "missing current output " + current_path.string();
      results.emplace_back(std::move(missing));
      any_error = true;
      continue;
    }
    const perf::BenchRecord current =
        perf::load_bench_file(current_path.string());
    const perf::CompareResult result =
        perf::compare_records(baseline, current, options);
    std::cout << result.render_table() << "\n";
    results.emplace_back(result.to_json());
    any_regressed = any_regressed || result.regressed();
    any_exact_regressed = any_exact_regressed || result.exact_regressed();
    any_error = any_error || result.schema_broken();
  }

  JsonObject verdict;
  verdict["regressed"] = any_regressed;
  verdict["exact_regressed"] = any_exact_regressed;
  verdict["errors"] = any_error;
  verdict["warn_only"] = warn_only;
  verdict["enforce_exact"] = enforce_exact;
  verdict["results"] = std::move(results);
  const std::string json_path = args.get("json", std::string(""));
  if (!json_path.empty()) {
    write_text_file(json_path, JsonValue(std::move(verdict)).dump(2) + "\n");
    std::cout << "verdict written to " << json_path << "\n";
  }

  if (any_error) return EXIT_FAILURE;  // schema/coverage errors always fail
  if (warn_only && enforce_exact && any_exact_regressed) {
    std::cout << "enforce-exact: exact-noise-class metric regressed; "
                 "failing despite --warn-only\n";
    return EXIT_FAILURE;
  }
  if (any_regressed && warn_only) {
    std::cout << "warn-only: regression reported but exiting 0\n";
    return EXIT_SUCCESS;
  }
  return any_regressed ? EXIT_FAILURE : EXIT_SUCCESS;
}

int cmd_perf(const Args& args) {
  if (args.positionals().empty()) {
    throw std::invalid_argument(
        "perf: expected an action: perf <record|compare|gate> [--flags]");
  }
  const std::string& action = args.positionals().front();
  if (action == "record") return cmd_perf_record(args);
  if (action == "compare") return cmd_perf_compare(args);
  if (action == "gate") return cmd_perf_gate(args);
  throw std::invalid_argument("perf: unknown action '" + action +
                              "' (expected record, compare, or gate)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string command = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    // Optional observability sinks, shared by every command. --sample-out
    // needs a registry to sample, so it implies one even without
    // --metrics-out (the snapshot is then only written to the time series).
    const std::string metrics_path = args.get("metrics-out", std::string(""));
    const std::string trace_path = args.get("trace-out", std::string(""));
    const std::string sample_path = args.get("sample-out", std::string(""));
    const std::string timeline_path = args.get("timeline-out", std::string(""));
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<obs::Tracer> tracer;
    if (!metrics_path.empty() || !sample_path.empty()) {
      registry = std::make_unique<obs::MetricsRegistry>();
    }
    if (!trace_path.empty()) tracer = std::make_unique<obs::Tracer>();
    std::unique_ptr<obs::TimelineRecorder> timeline;
    if (!timeline_path.empty()) {
      const auto capacity = static_cast<std::size_t>(args.get(
          "timeline-capacity",
          static_cast<std::int64_t>(obs::TimelineRecorder::kDefaultCapacity)));
      timeline = std::make_unique<obs::TimelineRecorder>(capacity);
    }
    obs::ObservabilityScope scope(registry.get(), tracer.get());
    obs::TimelineScope timeline_scope(timeline.get());
    // Constructed after the scope so it samples the installed registry and
    // is stopped (final sample + flush) before the scope unwinds.
    std::unique_ptr<obs::RunSampler> sampler;
    if (!sample_path.empty()) {
      obs::RunSamplerOptions sampler_options;
      sampler_options.path = sample_path;
      sampler_options.period = std::chrono::milliseconds(
          args.get("sample-period", std::int64_t{1000}));
      sampler = std::make_unique<obs::RunSampler>(nullptr, sampler_options);
    }
    if (args.get("debug-checks", false)) check::set_debug_checks(true);

    int status = EXIT_FAILURE;
    if (command == "generate") {
      status = cmd_generate(args);
    } else if (command == "realize") {
      status = cmd_realize(args);
    } else if (command == "run") {
      status = cmd_run(args);
    } else if (command == "serve") {
      status = cmd_serve(args);
    } else if (command == "obs") {
      status = cmd_obs(args);
    } else if (command == "evaluate") {
      status = cmd_evaluate(args);
    } else if (command == "sweep") {
      status = cmd_sweep(args);
    } else if (command == "bounds") {
      status = cmd_bounds(args);
    } else if (command == "repro") {
      status = cmd_repro(args);
    } else if (command == "fuzz") {
      status = cmd_fuzz(args);
    } else if (command == "perf") {
      status = cmd_perf(args);
    } else {
      std::cerr << "unknown command '" << command << "'\n";
      return usage(argv[0]);
    }

    if (sampler) {
      sampler->stop();
      std::cout << sampler->samples() << " sample(s) written to "
                << sample_path << "\n";
    }
    if (timeline) {
      timeline->save(timeline_path);
      std::cout << timeline->size() << " timeline event(s) written to "
                << timeline_path;
      if (timeline->dropped() > 0) {
        std::cout << " (" << timeline->dropped() << " dropped at capacity "
                  << timeline->capacity() << ")";
      }
      std::cout << "\n";
    }
    if (registry && !metrics_path.empty()) {
      registry->save_json(metrics_path);
      std::cout << "metrics written to " << metrics_path << "\n";
    }
    if (tracer) {
      tracer->save(trace_path);
      std::cout << "trace written to " << trace_path << "\n";
    }
    return status;
  } catch (const std::invalid_argument& error) {
    // Bad or missing flag values from any subcommand surface here: one
    // consistent message, a usage pointer, and the usage exit code.
    std::cerr << "error: " << error.what() << "\n"
              << "run '" << argv[0]
              << "' without arguments for the full command list\n";
    return kExitUsage;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return EXIT_FAILURE;
  }
}
