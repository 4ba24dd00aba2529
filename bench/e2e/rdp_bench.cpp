// End-to-end benchmark binary: one process runs one workload -- input
// generation, one untimed warm-up pass, then timed passes until the time
// budget is spent -- and prints one JSON object describing the run on
// stdout. bench/e2e/run.py builds this binary, runs several processes per
// workload, and turns their output into metrics; see bench/e2e/README.md.
//
// Every layer is timed from the outside: rdp_bench wraps each call into
// a layer's public entry point (TwoPhaseStrategy::place, make_priority,
// serve_stream, dispatch_online, CertifyEngine::certify, run_repro, ...).
// Untraced runs read the clock only around whole passes, and time a fixed
// reference kernel right after each one to price the host's speed. With
// --trace-out, each wrapped call of every odd-numbered timed pass also
// becomes an obs::Tracer span (the tracer is driven directly, never
// installed through ObservabilityScope, so the library's own hooks stay
// off); even-numbered passes stay untraced, which prices the tracing
// within one process. The run writes a Chrome trace plus a per-layer
// self-time table.
//
// Arrivals are an open loop in simulated time: the schedule is fixed by
// the seed before dispatch starts and replayed as fast as possible, so
// wall-clock times measure batch throughput while simulated latencies are
// deterministic fingerprints that must repeat exactly.
//
// Usage: rdp_bench --workload=NAME --seed=S [--seconds=T] [--smoke]
//                  [--trace-out=FILE] [--work-dir=DIR]
//                  [--reference=docs/RESULTS.md]
//   --seconds  budget for timed passes (at least one pass always runs)
//   --smoke    1/50-size inputs, all checks, for quick verification
//   --work-dir scratch directory for repro-paper's artifact trees
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/strategy.hpp"
#include "check/invariants.hpp"
#include "check/reference_dispatcher.hpp"
#include "cli/args.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exact/certify.hpp"
#include "hetero/uniform_machines.hpp"
#include "io/json.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perturb/stochastic.hpp"
#include "repro/pipeline.hpp"
#include "serve/arrivals.hpp"
#include "serve/slo.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "sim/transfer_dispatcher.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr MachineId kMachines = 64;
constexpr double kAlpha = 1.5;
constexpr std::size_t kSmokeDivisor = 50;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A fixed piece of work that prices the host's speed at the moment it
/// runs: fill 2^19 doubles from a fixed LCG and sort them (4 MiB, past a
/// core's L2, like the workloads' arrays). It calls nothing in the library,
/// so no change under src/ moves it. rdp_bench runs it right after every
/// timed pass; for core-bound workloads run.py divides each pass by the
/// kernel time next to it (and set-up by the process's median kernel
/// time), which cancels the minute-long slow spells of a shared host.
class ReferenceKernel {
 public:
  ReferenceKernel() { run(); }  // faults the buffer in

  double run() {
    const Clock::time_point start = Clock::now();
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    for (double& v : buffer_) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<double>(state >> 11);
    }
    std::sort(buffer_.begin(), buffer_.end());
    const double seconds = seconds_since(start);
    sink_ = buffer_[buffer_.size() / 2];  // keeps the sort observable
    return seconds;
  }

 private:
  std::vector<double> buffer_ = std::vector<double>(std::size_t{1} << 19);
  volatile double sink_ = 0;
};

// ---------------------------------------------------------------------------
// Layer timing and tracing.

/// Wraps calls into library layers. Untraced, a call is just a call. Traced,
/// it is timed with steady_clock, accumulated per layer for the current
/// pass, and recorded as a span tagged with the pass it belongs to (-1 for
/// set-up, 0 for the warm-up pass).
class Layers {
 public:
  explicit Layers(obs::Tracer* tracer) : tracer_(tracer), owner_(tracer) {}

  [[nodiscard]] bool tracing() const noexcept { return tracer_ != nullptr; }

  template <typename F>
  auto call(const std::string& layer, F&& f) {
    if (tracer_ == nullptr) return f();
    const std::uint64_t start_us = tracer_->now_us();
    const Clock::time_point start = Clock::now();
    auto result = f();
    seconds_[layer] += seconds_since(start);
    tracer_->span(layer, layer.substr(0, layer.find('.')), start_us,
                  tracer_->now_us() - start_us, pass_args());
    return result;
  }

  /// Adds a duration measured elsewhere (e.g. repro's per-artifact wall
  /// times from its manifest). Traced runs only, like call().
  void add(const std::string& layer, double seconds) {
    if (tracer_ != nullptr) seconds_[layer] += seconds;
  }

  /// Starts a pass; `traced` = false makes it a plain, unobserved pass.
  void begin(int pass, bool traced = true) {
    pass_ = pass;
    tracer_ = traced ? owner_ : nullptr;
    seconds_.clear();
  }
  [[nodiscard]] std::map<std::string, double> take() { return std::move(seconds_); }
  [[nodiscard]] std::string pass_args() const {
    return "{\"pass\":" + std::to_string(pass_) + "}";
  }

 private:
  obs::Tracer* tracer_;
  obs::Tracer* owner_;
  int pass_ = -1;
  std::map<std::string, double> seconds_;
};

/// Counts correctness checks; every failure is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 20) failures_.push_back(what);
      std::cerr << "rdp_bench: CHECK FAILED: " << what << "\n";
    }
  }

  void expect_valid(const std::vector<check::Violation>& violations,
                    const std::string& what) {
    std::string detail;
    if (!violations.empty()) {
      detail = ": " + std::to_string(violations.size()) + " violations, first " +
               check::to_string(violations.front());
    }
    expect(violations.empty(), what + " invariants" + detail);
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// FNV-1a over raw bytes: the cross-pass, cross-process output digest.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < bytes; ++k) {
    h ^= p[k];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t digest_schedule(std::uint64_t h, const Schedule& s) {
  h = fnv1a(h, s.assignment.machine_of.data(),
            s.assignment.machine_of.size() * sizeof(MachineId));
  h = fnv1a(h, s.start.data(), s.start.size() * sizeof(Time));
  return fnv1a(h, s.finish.data(), s.finish.size() * sizeof(Time));
}

// ---------------------------------------------------------------------------
// Workloads.

/// Frees `value`'s storage (`v = {}` would keep a vector's capacity).
template <typename T>
void drop(T& value) {
  value = T();
}

/// What one pass leaves behind besides its schedules: fingerprints that
/// must repeat exactly across passes and processes, and per-pass
/// observations (counters that may legitimately vary, such as cache
/// hits under a thread pool).
struct PassOutput {
  std::uint64_t digest = kFnvOffset;
  std::map<std::string, double> exact;
  std::map<std::string, double> observed;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Generates the inputs (timed into setup_s).
  virtual void setup(Layers& layers) = 0;
  /// One pass -- the timed unit of work: calls into the layers and
  /// nothing else. Per-pass measurements go to `out.observed`.
  virtual void pass(Layers& layers, PassOutput& out, bool warm_up) = 0;
  /// Digest and fingerprints of the last pass's outputs. Never timed.
  virtual void fingerprint(PassOutput& out) const = 0;
  /// Checks the last pass's outputs. Never timed.
  virtual void verify_pass(Checks& checks) = 0;
  /// Checks run once per process, after the warm-up pass. Never timed.
  virtual void verify_once(Checks& /*checks*/) {}
  /// Untimed extra measurements of traced runs, after each pass.
  virtual void traced_extras(Layers& /*layers*/) {}
  /// Frees the last pass's outputs, untimed, so every pass allocates
  /// from the same heap state instead of next to its predecessor's
  /// still-live results.
  virtual void release() = 0;
  /// Tasks dispatched per pass (tasks x loops or strategies); 0 = n/a.
  [[nodiscard]] virtual double tasks_per_pass() const = 0;
};

struct Inputs {
  Instance instance;
  Realization actual;
};

/// Estimates uniform on [1, 10], uniform noise in the alpha band.
Inputs generate_inputs(Layers& layers, std::size_t n, std::uint64_t seed) {
  return layers.call("workload.generate", [&] {
    WorkloadParams params;
    params.num_tasks = n;
    params.num_machines = kMachines;
    params.alpha = kAlpha;
    params.seed = seed;
    Inputs inputs;
    inputs.instance = uniform_workload(params, 1.0, 10.0);
    inputs.actual = realize(inputs.instance, NoiseModel::kUniform, seed + 1);
    return inputs;
  });
}

/// Converts an offered load rho into an arrival rate for this instance:
/// rho * m / mean(actual).
double rate_for_load(const Inputs& in, double rho) {
  const double mean = total_actual(in.actual) / static_cast<double>(in.actual.size());
  return rho * static_cast<double>(kMachines) / mean;
}

/// serve-steady / serve-burst: place -> priority -> serve_stream -> stats
/// -> SLO over an open-loop arrival schedule.
class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::string strategy, ArrivalParams arrivals, double rho,
                std::size_t n, std::uint64_t seed)
      : strategy_(strategy_from_spec(strategy)),
        arrival_params_(arrivals),
        rho_(rho),
        n_(n),
        seed_(seed),
        slo_(parse_slo_spec("p99=30,backlog=200,window=100,sustain=3")) {}

  void setup(Layers& layers) override {
    in_ = generate_inputs(layers, n_, seed_);
    arrival_params_.rate = rate_for_load(in_, rho_);
    arrival_params_.seed = seed_ + 2;
    arrivals_ = layers.call("serve.arrivals",
                            [&] { return generate_arrivals(arrival_params_, n_); });
  }

  void pass(Layers& layers, PassOutput& /*out*/, bool /*warm_up*/) override {
    placement_ = layers.call("algo.place", [&] { return strategy_.place(in_.instance); });
    priority_ = layers.call("algo.priority",
                            [&] { return make_priority(in_.instance, strategy_.rule()); });
    result_ = layers.call("serve.dispatch", [&] {
      return serve_stream(in_.instance, placement_, in_.actual, priority_, arrivals_);
    });
    stats_ = layers.call(
        "serve.stats", [&] { return compute_serve_stats(result_.schedule, arrivals_); });
    slo_report_ = layers.call(
        "serve.slo", [&] { return evaluate_slo(result_.schedule, arrivals_, slo_); });
  }

  void fingerprint(PassOutput& out) const override {
    out.digest = digest_schedule(out.digest, result_.schedule);
    out.exact["sim_response_p50_s"] = stats_.response.p50;
    out.exact["sim_response_p99_s"] = stats_.response.p99;
    out.exact["slo_burn_rate"] = slo_report_.burn_rate;
    out.exact["serve.peak_backlog"] = static_cast<double>(result_.peak_backlog);
    out.exact["serve.slo_windows"] = static_cast<double>(slo_report_.windows.size());
    out.exact["serve.slo_violating_windows"] =
        static_cast<double>(slo_report_.violating_windows);
    out.exact["core.distinct_sets"] = placement_.num_distinct_sets();
  }

  void verify_pass(Checks& checks) override {
    checks.expect_valid(check::check_invariants(in_.instance, placement_, in_.actual,
                                                result_.schedule),
                        "serve_stream schedule");
    std::size_t early = 0;
    for (TaskId j = 0; j < n_; ++j) {
      if (result_.schedule.start[j] < arrivals_[j]) ++early;
    }
    checks.expect(early == 0,
                  std::to_string(early) + " serve tasks start before their arrival");
  }

  /// Drain mode (every arrival at t = 0) must be bit-identical to the
  /// offline dispatcher, schedule and trace.
  void verify_once(Checks& checks) override {
    const std::vector<Time> drain(n_, Time{0});
    const StreamingDispatchResult drained =
        serve_stream(in_.instance, placement_, in_.actual, priority_, drain);
    const DispatchResult offline =
        dispatch_online(in_.instance, placement_, in_.actual, priority_);
    const std::string diff = check::diff_schedules(drained.schedule, offline.schedule);
    checks.expect(diff.empty(), "drain-mode serve_stream differs from dispatch_online: " +
                                    diff);
    bool same_trace = drained.trace.size() == offline.trace.size();
    for (std::size_t k = 0; same_trace && k < offline.trace.size(); ++k) {
      const DispatchEvent& a = drained.trace.events[k];
      const DispatchEvent& b = offline.trace.events[k];
      same_trace = a.when == b.when && a.task == b.task && a.machine == b.machine &&
                   a.actual == b.actual;
    }
    checks.expect(same_trace, "drain-mode dispatch trace differs from dispatch_online");
  }

  /// dispatch_online on the same inputs, outside the pass: run.py divides
  /// its time by serve.dispatch to get serve.offline_ratio.
  void traced_extras(Layers& layers) override {
    layers.call("serve.offline_reference", [&] {
      return dispatch_online(in_.instance, placement_, in_.actual, priority_);
    });
  }

  void release() override {
    drop(placement_);
    drop(priority_);
    drop(result_);
    drop(slo_report_);
  }

  [[nodiscard]] double tasks_per_pass() const override {
    return static_cast<double>(n_);
  }

 private:
  TwoPhaseStrategy strategy_;
  ArrivalParams arrival_params_;
  double rho_;
  std::size_t n_;
  std::uint64_t seed_;
  SloSpec slo_;
  Inputs in_;
  std::vector<Time> arrivals_;
  Placement placement_;
  std::vector<TaskId> priority_;
  StreamingDispatchResult result_;
  ServeStats stats_;
  SloReport slo_report_;
};

/// batch-paper: the paper's three strategies through the offline two-phase
/// path, then one certification with a fresh CertifyEngine.
class BatchWorkload final : public Workload {
 public:
  BatchWorkload(std::size_t n, std::uint64_t seed) : n_(n), seed_(seed) {
    runs_.push_back({"lpt-no-choice", make_lpt_no_choice(), {}, {}, {}});
    runs_.push_back({"ls-group-8", make_ls_group(8), {}, {}, {}});
    runs_.push_back({"lpt-no-restriction", make_lpt_no_restriction(), {}, {}, {}});
  }

  void setup(Layers& layers) override { in_ = generate_inputs(layers, n_, seed_); }

  void pass(Layers& layers, PassOutput& /*out*/, bool /*warm_up*/) override {
    for (Run& run : runs_) {
      run.placement = layers.call("algo.place." + run.tag,
                                  [&] { return run.strategy.place(in_.instance); });
      run.priority = layers.call("algo.priority." + run.tag, [&] {
        return make_priority(in_.instance, run.strategy.rule());
      });
      run.result = layers.call("sim.dispatch." + run.tag, [&] {
        return dispatch_online(in_.instance, run.placement, in_.actual, run.priority);
      });
    }
    cert_ = layers.call("exact.certify", [&] {
      CertifyEngine engine;
      return engine.certify(in_.actual.actual, kMachines);
    });
  }

  void fingerprint(PassOutput& out) const override {
    double distinct = 0;
    double ratio_max = 0;
    for (const Run& run : runs_) {
      distinct += run.placement.num_distinct_sets();
      out.digest = digest_schedule(out.digest, run.result.schedule);
      ratio_max = std::max(ratio_max, run.result.schedule.makespan() / cert_.lower);
    }
    out.exact["certified_ratio_max"] = ratio_max;
    out.exact["exact.bracket_ratio"] = cert_.upper / cert_.lower;
    out.exact["core.distinct_sets"] = distinct;
  }

  void verify_pass(Checks& checks) override {
    for (const Run& run : runs_) {
      checks.expect_valid(check::check_invariants(in_.instance, run.placement, in_.actual,
                                                  run.result.schedule),
                          "dispatch_online " + run.tag);
      checks.expect(run.result.schedule.makespan() >= cert_.lower,
                    run.tag + " makespan below the certified lower bound");
    }
    checks.expect(cert_.lower > 0 && cert_.upper >= cert_.lower,
                  "certification bracket is not ordered");
  }

  /// LS-Group must be bit-exact against the retained reference dispatcher.
  void verify_once(Checks& checks) override {
    const Run& run = runs_[1];
    const DispatchResult reference = check::reference_dispatch_online(
        in_.instance, run.placement, in_.actual, run.priority);
    const std::string diff =
        check::diff_schedules(run.result.schedule, reference.schedule);
    checks.expect(diff.empty(), "ls-group-8 differs from reference_dispatch_online: " +
                                    diff);
  }

  void release() override {
    for (Run& run : runs_) {
      drop(run.placement);
      drop(run.priority);
      drop(run.result);
    }
  }

  [[nodiscard]] double tasks_per_pass() const override {
    return static_cast<double>(n_ * runs_.size());
  }

 private:
  struct Run {
    std::string tag;
    TwoPhaseStrategy strategy;
    Placement placement;
    std::vector<TaskId> priority;
    DispatchResult result;
  };

  std::size_t n_;
  std::uint64_t seed_;
  Inputs in_;
  std::vector<Run> runs_;
  CertifiedCmax cert_;
};

/// phase2-variants: the failure, speculative and transfer loops on one
/// LS-Group(k=8) placement. Passes run the canonical seed-1 instance: the
/// speculative loop's idle scan costs O(n) per parked-machine wake-up, and
/// how many wake-ups the tail holds depends on the realization (0.96 s to
/// 1.92 s at n = 100k across seeds 1-8), so timing --seed inputs would
/// measure the seed, not the code. The --seed instance runs once per
/// process, untimed, through the same checks.
class Phase2Workload final : public Workload {
 public:
  Phase2Workload(std::size_t n, std::uint64_t seed)
      : strategy_(make_ls_group(8)), n_(n), seed_(seed) {}

  void setup(Layers& layers) override {
    timed_ = make_case(layers, kCanonicalSeed);
    checked_ = make_case(layers, seed_);
    // One 0.25-speed straggler (the first machine) in every group.
    speeds_.assign(kMachines, 1.0);
    for (MachineId i = 0; i < kMachines; i += 8) speeds_[i] = 0.25;
    policy_.max_copies = 2;
    transfer_.bandwidth = 4.0;
    transfer_.latency = 0.5;
  }

  void pass(Layers& layers, PassOutput& /*out*/, bool /*warm_up*/) override {
    run_case(layers, timed_, out_);
  }

  void fingerprint(PassOutput& out) const override {
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    const SpeculativeResult& spec = out_.speculative;
    out.digest = digest_schedule(out.digest, out_.failures.schedule);
    out.digest = digest_schedule(out.digest, spec.schedule);
    out.digest = digest_schedule(out.digest, out_.transfers.schedule);
    out.exact["sim_makespan_s"] =
        out_.failures.makespan + spec.makespan + out_.transfers.makespan;
    out.exact["core.distinct_sets"] = out_.placement.num_distinct_sets();
    out.exact["sim.failures.restarts"] = count(out_.failures.restarts);
    out.exact["sim.failures.refetches"] = count(out_.failures.refetches);
    out.exact["sim.failures.events"] =
        static_cast<double>(out_.failures.events_processed);
    out.exact["sim.speculative.launched"] = count(spec.duplicates_launched);
    out.exact["sim.speculative.won"] = count(spec.duplicates_won);
    out.exact["sim.speculative.useful_ratio"] =
        spec.duplicates_launched == 0
            ? 0.0
            : count(spec.duplicates_won) / count(spec.duplicates_launched);
    out.exact["sim.speculative.wasted_s"] = spec.wasted_time;
    out.exact["sim.transfer.remote_runs"] = count(out_.transfers.remote_runs);
    out.exact["sim.transfer.fetch_s"] = out_.transfers.transfer_time;
  }

  void verify_pass(Checks& checks) override { check_case(timed_, out_, checks, ""); }

  void verify_once(Checks& checks) override {
    Layers untimed(nullptr);
    Outputs outputs;
    run_case(untimed, checked_, outputs);
    check_case(checked_, outputs, checks, " at seed " + std::to_string(seed_));
  }

  void release() override { drop(out_); }

  [[nodiscard]] double tasks_per_pass() const override {
    return static_cast<double>(3 * n_);
  }

 private:
  static constexpr std::uint64_t kCanonicalSeed = 1;

  struct Case {
    Inputs in;
    FailurePlan plan;
  };

  struct Outputs {
    Placement placement;
    std::vector<TaskId> priority;
    FailureDispatchResult failures;
    SpeculativeResult speculative;
    TransferDispatchResult transfers;
  };

  Case make_case(Layers& layers, std::uint64_t seed) const {
    Case c{generate_inputs(layers, n_, seed), {}};
    // Machine 8g+1 fails at (g+1)/10 of the ideal horizon for g = 0..6;
    // all of group 7 fails at 0.9, so its tasks must re-fetch their data.
    const Time horizon = total_actual(c.in.actual) / kMachines;
    for (MachineId g = 0; g < 7; ++g) {
      c.plan.failures.push_back({8 * g + 1, horizon * (g + 1) / 10.0});
    }
    for (MachineId i = 56; i < kMachines; ++i) {
      c.plan.failures.push_back({i, horizon * 0.9});
    }
    c.plan.refetch_penalty = 5.0;
    return c;
  }

  void run_case(Layers& layers, const Case& c, Outputs& o) const {
    const Instance& instance = c.in.instance;
    const Realization& actual = c.in.actual;
    o.placement = layers.call("algo.place", [&] { return strategy_.place(instance); });
    o.priority = layers.call("algo.priority",
                             [&] { return make_priority(instance, strategy_.rule()); });
    o.failures = layers.call("sim.failures", [&] {
      return dispatch_with_failures(instance, o.placement, actual, o.priority, c.plan);
    });
    o.speculative = layers.call("sim.speculative", [&] {
      return dispatch_speculative(instance, o.placement, actual, o.priority,
                                  SpeedProfile(speeds_), policy_);
    });
    o.transfers = layers.call("sim.transfer", [&] {
      return dispatch_with_transfers(instance, o.placement, actual, o.priority,
                                     transfer_);
    });
  }

  /// The same invariant options the fuzzer's cross-checks use per loop.
  void check_case(const Case& c, const Outputs& o, Checks& checks,
                  const std::string& at) const {
    const Instance& instance = c.in.instance;
    {
      check::InvariantOptions options;
      options.off_placement_ok.assign(n_, false);
      options.extra_duration.assign(n_, 0.0);
      std::size_t off_placement = 0;
      for (TaskId j = 0; j < n_; ++j) {
        const MachineId i = o.failures.schedule.assignment[j];
        if (i != kNoMachine && !o.placement.allows(j, i)) {
          options.off_placement_ok[j] = true;
          options.extra_duration[j] = c.plan.refetch_penalty;
          ++off_placement;
        }
      }
      checks.expect_valid(check::check_invariants(instance, o.placement, c.in.actual,
                                                  o.failures.schedule, options),
                          "dispatch_with_failures" + at);
      checks.expect(off_placement == o.failures.refetches,
                    "off-placement runs differ from the refetch count" + at);
    }
    {
      check::InvariantOptions options;
      options.speeds = speeds_;
      options.check_lower_bound = false;
      checks.expect_valid(check::check_invariants(instance, o.placement, c.in.actual,
                                                  o.speculative.schedule, options),
                          "dispatch_speculative" + at);
    }
    {
      check::InvariantOptions options;
      options.off_placement_ok.assign(n_, false);
      options.extra_duration.assign(n_, 0.0);
      std::size_t remote = 0;
      for (TaskId j = 0; j < n_; ++j) {
        const MachineId i = o.transfers.schedule.assignment[j];
        if (i != kNoMachine && !o.placement.allows(j, i)) {
          options.off_placement_ok[j] = true;
          options.extra_duration[j] =
              transfer_.latency + instance.size(j) / transfer_.bandwidth;
          ++remote;
        }
      }
      checks.expect_valid(check::check_invariants(instance, o.placement, c.in.actual,
                                                  o.transfers.schedule, options),
                          "dispatch_with_transfers" + at);
      checks.expect(remote == o.transfers.remote_runs,
                    "off-placement runs differ from the remote-run count" + at);
    }
  }

  TwoPhaseStrategy strategy_;
  std::size_t n_;
  std::uint64_t seed_;
  Case timed_;
  Case checked_;
  std::vector<double> speeds_;
  SpeculationPolicy policy_;
  TransferModel transfer_;
  Outputs out_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// repro-paper: run_repro over all 13 artifacts into a fresh tree. Timed
/// passes reproduce the committed seed 1, so RESULTS.md is compared byte
/// for byte on every pass and the timed work does not vary with --seed;
/// the warm-up pass reproduces --seed and must report no violations.
class ReproWorkload final : public Workload {
 public:
  ReproWorkload(std::uint64_t seed, fs::path work_dir, fs::path reference)
      : seed_(seed), work_dir_(std::move(work_dir)), reference_path_(std::move(reference)) {}

  void setup(Layers& /*layers*/) override {
    fs::remove_all(work_dir_);
    fs::create_directories(work_dir_);
    reference_ = read_file(reference_path_);
  }

  void pass(Layers& layers, PassOutput& out, bool warm_up) override {
    pass_seed_ = warm_up ? seed_ : 1;
    const fs::path root = work_dir_ / (warm_up ? "warm-up" : "timed");
    repro::ReproOptions options;
    options.out_dir = (root / "artifacts").string();
    options.results_path = (root / "docs" / "RESULTS.md").string();
    options.jobs = 2;
    options.seed = pass_seed_;
    options.force = true;

    // Traced runs install a registry so the certify engine's exp.certify.*
    // counters can be read back; untraced run_repro installs its own.
    obs::MetricsRegistry registry;
    std::optional<obs::ObservabilityScope> scope;
    if (layers.tracing()) scope.emplace(&registry, nullptr);
    summary_ = layers.call("repro.run", [&] { return repro::run_repro(options); });
    scope.reset();

    for (const repro::ManifestEntry& entry : summary_.manifest.entries) {
      layers.add("repro.artifact." + entry.name, entry.wall_seconds);
    }
    if (layers.tracing()) {
      const obs::MetricsSnapshot snap = registry.snapshot();
      const auto hits = static_cast<double>(snap.counter_or("exp.certify.cache_hits"));
      const auto misses =
          static_cast<double>(snap.counter_or("exp.certify.cache_misses"));
      out.observed["exact.cache_hits"] = hits;
      out.observed["exact.cache_misses"] = misses;
      out.observed["exact.cache_hit_rate"] =
          hits + misses > 0 ? hits / (hits + misses) : 0.0;
      out.observed["exact.backend_bnb"] =
          static_cast<double>(snap.counter_or("exp.certify.backend.bnb"));
      out.observed["exact.backend_ptas"] =
          static_cast<double>(snap.counter_or("exp.certify.backend.ptas"));
    }
    root_ = root;
  }

  void fingerprint(PassOutput& out) const override {
    out.digest = fnv1a(out.digest, results_.data(), results_.size());
    out.exact["repro_checks"] = static_cast<double>(summary_.checks);
  }

  void verify_pass(Checks& checks) override {
    const std::string at = " at seed " + std::to_string(pass_seed_);
    const fs::path results = root_ / "docs" / "RESULTS.md";
    results_ = summary_.results_written ? read_file(results) : "";
    checks.expect(summary_.generated == summary_.selected && summary_.selected > 0,
                  "repro did not regenerate every artifact" + at);
    checks.expect(summary_.violations == 0,
                  std::to_string(summary_.violations) + " theorem violations" + at);
    checks.expect(summary_.results_written, "repro did not write RESULTS.md" + at);
    if (pass_seed_ == 1) {
      checks.expect(results_ == reference_,
                    "RESULTS.md differs from " + reference_path_.string() + at);
    }
  }

  void release() override {
    drop(summary_);
    drop(results_);
    fs::remove_all(root_);
  }

  [[nodiscard]] double tasks_per_pass() const override { return 0; }

 private:
  std::uint64_t seed_;
  fs::path work_dir_;
  fs::path reference_path_;
  std::string reference_;
  std::uint64_t pass_seed_ = 1;
  repro::ReproSummary summary_;
  std::string results_;
  fs::path root_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool smoke, const Args& args) {
  const std::size_t scale = smoke ? kSmokeDivisor : 1;
  if (name == "serve-steady") {
    ArrivalParams arrivals;
    arrivals.model = ArrivalModel::kPoisson;
    return std::make_unique<ServeWorkload>("ls-group:8", arrivals, 0.7,
                                           500'000 / scale, seed);
  }
  if (name == "serve-burst") {
    ArrivalParams arrivals;
    arrivals.model = ArrivalModel::kBurst;
    arrivals.burst_boost = 2.5;
    arrivals.burst_on = 100.0;
    arrivals.burst_off = 400.0;
    return std::make_unique<ServeWorkload>("lpt-no-restriction", arrivals, 0.6,
                                           500'000 / scale, seed);
  }
  if (name == "batch-paper") {
    return std::make_unique<BatchWorkload>(500'000 / scale, seed);
  }
  if (name == "phase2-variants") {
    return std::make_unique<Phase2Workload>(100'000 / scale, seed);
  }
  if (name == "repro-paper") {
    return std::make_unique<ReproWorkload>(
        seed, fs::path(args.get("work-dir", std::string("."))) / "repro-work",
        fs::path(args.get("reference", std::string("docs/RESULTS.md"))));
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Trace post-processing: self time per layer.

struct SelfTime {
  std::uint64_t calls = 0;
  std::uint64_t self_us = 0;
};

/// Self time of every span: its duration minus what its direct children
/// cover. Spans are properly nested (single thread, recorded by scoped
/// wrappers), so a stack over start-ordered spans recovers the tree.
/// Returns per-name totals over timed passes and, per timed pass, the sum
/// of self times inside its "pass" span.
std::map<std::string, SelfTime> self_times(const std::vector<obs::TraceEvent>& events,
                                           std::map<int, std::uint64_t>& pass_self_us) {
  std::vector<const obs::TraceEvent*> spans;
  for (const obs::TraceEvent& e : events) {
    if (e.phase == 'X') spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
  });
  struct Open {
    const obs::TraceEvent* event;
    std::uint64_t child_us;
    int root_pass;  ///< pass of the enclosing "pass" span, -1 outside one
  };
  std::vector<Open> stack;
  std::map<std::string, SelfTime> totals;
  const auto close = [&](const Open& open) {
    const std::uint64_t self = open.event->dur_us - std::min(open.child_us,
                                                             open.event->dur_us);
    if (open.root_pass > 0) {
      SelfTime& t = totals[open.event->name == "pass" ? "pass.glue"
                                                      : open.event->name];
      ++t.calls;
      t.self_us += self;
      pass_self_us[open.root_pass] += self;
    }
  };
  const auto pass_of = [](const obs::TraceEvent& e) {
    const std::size_t colon = e.args_json.find(':');
    return colon == std::string::npos ? -1 : std::atoi(e.args_json.c_str() + colon + 1);
  };
  for (const obs::TraceEvent* e : spans) {
    while (!stack.empty() &&
           stack.back().event->ts_us + stack.back().event->dur_us <= e->ts_us) {
      close(stack.back());
      stack.pop_back();
    }
    int root_pass = -1;
    if (!stack.empty()) {
      stack.back().child_us += e->dur_us;
      root_pass = stack.back().root_pass;
    } else if (e->name == "pass") {
      root_pass = pass_of(*e);
    }
    stack.push_back({e, 0, root_pass});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return totals;
}

void write_self_time_table(const std::string& path,
                           const std::map<std::string, SelfTime>& totals,
                           std::size_t passes, double wall_total) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  std::uint64_t sum_us = 0;
  for (const auto& [name, t] : totals) sum_us += t.self_us;
  out << "# per-layer self time over " << passes << " traced passes; traced wall "
      << wall_total << " s\nlayer\tcalls\tself_s\tself_s_per_pass\tshare\n";
  for (const auto& [name, t] : totals) {
    const double s = static_cast<double>(t.self_us) * 1e-6;
    out << name << "\t" << t.calls << "\t" << s << "\t"
        << s / static_cast<double>(passes) << "\t"
        << (sum_us > 0 ? static_cast<double>(t.self_us) / static_cast<double>(sum_us)
                       : 0.0)
        << "\n";
  }
}

/// Peak resident set of this process in MiB. Linux carries the forking
/// parent's high-water mark across exec, so a process smaller than run.py
/// (about 16 MiB; only --smoke ones) reports the parent's figure.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

JsonValue to_json(const std::map<std::string, double>& values) {
  JsonObject obj;
  for (const auto& [k, v] : values) obj[k] = JsonValue(v);
  return JsonValue(std::move(obj));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int run(const Args& args) {
  const std::string name = args.get("workload", std::string{});
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const double budget = args.get("seconds", 10.0);
  const bool smoke = args.get("smoke", false);
  const std::string trace_out = args.get("trace-out", std::string{});
  if (!(budget >= 0)) {
    std::cerr << "rdp_bench: need --seconds >= 0\n";
    return 2;
  }
  const std::unique_ptr<Workload> workload = make_workload(name, seed, smoke, args);
  if (!workload) {
    std::cerr << "rdp_bench: unknown --workload '" << name
              << "' (serve-steady, serve-burst, batch-paper, phase2-variants, "
                 "repro-paper)\n";
    return 2;
  }

  std::unique_ptr<obs::Tracer> tracer;
  if (!trace_out.empty()) tracer = std::make_unique<obs::Tracer>();
  Layers layers(tracer.get());
  Checks checks;
  ReferenceKernel kernel;

  // Set-up: input generation plus the warm-up pass.
  const Clock::time_point setup_start = Clock::now();
  layers.begin(-1);
  workload->setup(layers);
  const double generate_s = seconds_since(setup_start);
  const std::map<std::string, double> setup_layers = layers.take();

  // A traced run alternates traced (odd) and untraced (even) timed
  // passes, so trace.overhead_ratio compares passes of one process.
  const auto traced_pass = [&](int index) { return tracer && index % 2 == 1; };
  double warm_up_wall = 0;
  std::vector<double> walls;          // timed passes (traced ones if tracing)
  std::vector<double> references;      // reference kernel after each of walls
  std::vector<double> untraced_walls;  // tracing only: the interleaved passes
  std::map<int, double> traced_wall_of_pass;
  std::map<std::string, std::vector<double>> layer_series;
  std::map<std::string, std::vector<double>> observed_series;
  PassOutput first_timed;
  const auto run_pass = [&](int index) {
    const bool traced = traced_pass(index);
    layers.begin(index, traced);
    PassOutput out;
    const std::uint64_t start_us = traced ? tracer->now_us() : 0;
    const Clock::time_point start = Clock::now();
    workload->pass(layers, out, index == 0);
    const double wall = seconds_since(start);
    if (traced) {
      tracer->span("pass", "bench", start_us, tracer->now_us() - start_us,
                   layers.pass_args());
      traced_wall_of_pass[index] = wall;
    }
    const double reference = index == 0 ? 0.0 : kernel.run();
    layers.call("check.verify", [&] {
      workload->verify_pass(checks);
      workload->fingerprint(out);
      if (index == 0) workload->verify_once(checks);
      return 0;
    });
    if (traced) workload->traced_extras(layers);
    workload->release();
    std::map<std::string, double> seconds = layers.take();
    if (index == 0) {
      warm_up_wall = wall;
      return;
    }
    if (tracer && !traced) {
      untraced_walls.push_back(wall);
    } else {
      walls.push_back(wall);
      references.push_back(reference);
    }
    for (const auto& [layer, s] : seconds) layer_series[layer].push_back(s);
    for (const auto& [key, v] : out.observed) observed_series[key].push_back(v);
    if (index == 1) {
      first_timed = out;
      return;
    }
    checks.expect(out.digest == first_timed.digest,
                  "pass " + std::to_string(index) + " output digest differs");
    checks.expect(out.exact == first_timed.exact,
                  "pass " + std::to_string(index) + " fingerprints differ");
  };

  run_pass(0);
  const double setup_s = generate_s + warm_up_wall;

  const Clock::time_point timed_start = Clock::now();
  for (int index = 1;; ++index) {
    run_pass(index);
    if (seconds_since(timed_start) >= budget) break;
  }

  JsonObject result;
  result["workload"] = name;
  result["seed"] = JsonValue(static_cast<unsigned long long>(seed));
  result["smoke"] = smoke;
  result["traced"] = tracer != nullptr;
  result["tasks_per_pass"] = workload->tasks_per_pass();
  result["setup_s"] = setup_s;
  result["generate_s"] = generate_s;
  result["warmup_wall_s"] = warm_up_wall;
  result["wall_s"] = JsonValue(JsonArray(walls.begin(), walls.end()));
  result["reference_s"] = JsonValue(JsonArray(references.begin(), references.end()));
  result["digest"] = hex(first_timed.digest);
  result["exact"] = to_json(first_timed.exact);
  result["setup_layers_s"] = to_json(setup_layers);
  JsonObject layers_json;
  for (const auto& [layer, series] : layer_series) {
    layers_json[layer] = JsonValue(JsonArray(series.begin(), series.end()));
  }
  result["layers_s"] = JsonValue(std::move(layers_json));
  JsonObject observed_json;
  for (const auto& [key, series] : observed_series) {
    observed_json[key] = JsonValue(JsonArray(series.begin(), series.end()));
  }
  result["observed"] = JsonValue(std::move(observed_json));

  if (tracer) {
    std::map<int, std::uint64_t> pass_self_us;
    const auto totals = self_times(tracer->events(), pass_self_us);
    double traced_wall = 0;
    for (const auto& [pass, wall] : traced_wall_of_pass) {
      const double accounted = static_cast<double>(pass_self_us[pass]) * 1e-6;
      traced_wall += wall;
      checks.expect(std::abs(accounted - wall) <= 0.05 * wall,
                    "pass " + std::to_string(pass) + ": self times account for " +
                        std::to_string(accounted) + " s of " + std::to_string(wall) +
                        " s");
    }
    checks.expect(tracer->dropped() == 0, "trace buffer dropped events");
    tracer->save(trace_out);
    fs::path table(trace_out);
    table.replace_extension(".selftime.tsv");
    write_self_time_table(table.string(), totals, walls.size(), traced_wall);
    result["untraced_wall_s"] =
        JsonValue(JsonArray(untraced_walls.begin(), untraced_walls.end()));
    result["trace"] = trace_out;
    result["selftime_table"] = table.string();
  }

  result["checks_attempted"] = JsonValue(static_cast<unsigned long long>(checks.attempted()));
  result["checks_failed"] = JsonValue(static_cast<unsigned long long>(checks.failed()));
  result["failures"] =
      JsonValue(JsonArray(checks.failures().begin(), checks.failures().end()));
  result["peak_rss_mb"] = peak_rss_mib();
  std::cout << JsonValue(std::move(result)).dump() << "\n";
  return checks.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "rdp_bench: error: " << e.what() << "\n";
    return 2;
  }
}
