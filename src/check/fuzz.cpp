#include "check/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <ostream>
#include <span>
#include <stdexcept>

#include "adapt/adaptive_strategy.hpp"
#include "check/invariants.hpp"
#include "check/reference_dispatcher.hpp"
#include "check/reference_slo.hpp"
#include "exact/certify_scale.hpp"
#include "exact/optimal.hpp"
#include "hetero/uniform_machines.hpp"
#include "io/json.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "serve/arrivals.hpp"
#include "serve/slo.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"

namespace rdp::check {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::infinity();

// ---------------------------------------------------------------------
// Case generation.

std::vector<TaskId> identity_priority(std::size_t n) {
  std::vector<TaskId> priority(n);
  for (TaskId j = 0; j < n; ++j) priority[j] = j;
  return priority;
}

}  // namespace

FuzzCase make_fuzz_case(std::uint64_t seed, const FuzzCaseConfig& config) {
  if (config.min_tasks == 0 || config.min_tasks > config.max_tasks ||
      config.min_machines == 0 || config.min_machines > config.max_machines) {
    throw std::invalid_argument("make_fuzz_case: bad generator bounds");
  }
  Xoshiro256 rng(seed);
  FuzzCase out;
  out.seed = seed;

  const std::size_t n =
      config.min_tasks + static_cast<std::size_t>(
                             rng.next_below(config.max_tasks - config.min_tasks + 1));
  const MachineId m =
      config.min_machines +
      static_cast<MachineId>(rng.next_below(config.max_machines -
                                            config.min_machines + 1));
  const double alpha = sample_uniform(rng, 1.1, 3.0);

  std::vector<Task> tasks(n);
  for (Task& task : tasks) {
    task.estimate = sample_uniform(rng, 1.0, 10.0);
    task.size = sample_uniform(rng, 0.5, 4.0);
  }
  out.instance = Instance(std::move(tasks), m, alpha);

  // Random replica sets with degree uniform in [1, m].
  std::vector<std::vector<MachineId>> sets(n);
  std::vector<MachineId> pool(m);
  for (MachineId i = 0; i < m; ++i) pool[i] = i;
  for (auto& set : sets) {
    const auto degree = 1 + static_cast<MachineId>(rng.next_below(m));
    shuffle(rng, pool);
    set.assign(pool.begin(), pool.begin() + degree);
  }
  out.placement = Placement(std::move(sets), m);

  out.priority = identity_priority(n);
  shuffle(rng, out.priority);

  out.actual.actual.resize(n);
  for (TaskId j = 0; j < n; ++j) {
    // Drifting scenario: the band a task's factor is drawn from widens
    // across the task index, from no uncertainty up to 1.5x the declared
    // alpha -- so late tasks can violate the declared band.
    double band = alpha;
    if (config.scenario == FuzzScenario::kDriftingAlpha && n > 1) {
      const double t = static_cast<double>(j) / static_cast<double>(n - 1);
      band = 1.0 + (1.5 * alpha - 1.0) * t;
    }
    out.actual.actual[j] =
        out.instance.estimate(j) * sample_uniform(rng, 1.0 / band, band);
  }

  // Fail-stop plan: each machine fails with probability ~40%, but at
  // least one machine always survives (otherwise the model is infeasible
  // once a task refetches). Failure times span the plausible horizon.
  const Time horizon =
      out.instance.total_estimate() / static_cast<double>(m) * 1.5 +
      out.instance.max_estimate();
  std::vector<MachineId> failing;
  for (MachineId i = 0; i < m; ++i) {
    if (rng.next_double() < 0.4) failing.push_back(i);
  }
  if (failing.size() == m) {
    failing.erase(failing.begin() +
                  static_cast<std::ptrdiff_t>(rng.next_below(failing.size())));
  }
  for (MachineId i : failing) {
    out.plan.failures.push_back(MachineFailure{i, sample_uniform(rng, 0.0, horizon)});
  }
  out.plan.refetch_penalty = sample_uniform(rng, 0.0, 5.0);
  if (config.scenario == FuzzScenario::kTies) {
    for (Time& a : out.actual.actual) a = std::max(Time{1}, std::round(a));
    for (MachineFailure& f : out.plan.failures) f.when = std::round(f.when);
    out.plan.refetch_penalty = std::round(out.plan.refetch_penalty);
  }

  out.transfer.bandwidth = sample_log_uniform(rng, 0.25, 8.0);
  out.transfer.latency = sample_uniform(rng, 0.0, 2.0);

  out.speeds.resize(m);
  for (MachineId i = 0; i < m; ++i) out.speeds[i] = sample_uniform(rng, 0.5, 2.0);
  return out;
}

FuzzCase restrict_tasks(const FuzzCase& fuzz_case, std::size_t num_tasks) {
  const std::size_t n = fuzz_case.instance.num_tasks();
  if (num_tasks == 0 || num_tasks > n) {
    throw std::invalid_argument("restrict_tasks: prefix size out of range");
  }
  FuzzCase out;
  out.seed = fuzz_case.seed;
  std::vector<Task> tasks(fuzz_case.instance.tasks().begin(),
                          fuzz_case.instance.tasks().begin() +
                              static_cast<std::ptrdiff_t>(num_tasks));
  out.instance = Instance(std::move(tasks), fuzz_case.instance.num_machines(),
                          fuzz_case.instance.alpha());
  std::vector<std::vector<MachineId>> sets;
  sets.reserve(num_tasks);
  for (TaskId j = 0; j < num_tasks; ++j) {
    sets.push_back(fuzz_case.placement.machines_for(j));
  }
  out.placement = Placement(std::move(sets), fuzz_case.placement.num_machines());
  for (TaskId j : fuzz_case.priority) {
    if (j < num_tasks) out.priority.push_back(j);
  }
  out.actual.actual.assign(fuzz_case.actual.actual.begin(),
                           fuzz_case.actual.actual.begin() +
                               static_cast<std::ptrdiff_t>(num_tasks));
  out.plan = fuzz_case.plan;
  out.transfer = fuzz_case.transfer;
  out.speeds = fuzz_case.speeds;
  return out;
}

// ---------------------------------------------------------------------
// Cross-checks.

namespace {

constexpr std::size_t kChecksPerCase = 18;
constexpr double kTol = 1e-9;

struct CheckContext {
  const FuzzCase& c;
  std::vector<FuzzFailure>& out;

  void fail(const std::string& check, const std::string& detail) const {
    FuzzFailure f;
    f.seed = c.seed;
    f.num_tasks = c.instance.num_tasks();
    f.num_machines = c.instance.num_machines();
    f.check = check;
    f.detail = detail;
    out.push_back(std::move(f));
  }

  void fail_violations(const std::string& check,
                       const std::vector<Violation>& violations) const {
    if (violations.empty()) return;
    // One failure per check keeps reports readable; the detail carries
    // the first (usually root-cause) violation plus the total count.
    std::string detail = to_string(violations.front());
    if (violations.size() > 1) {
      detail += " (+" + std::to_string(violations.size() - 1) + " more)";
    }
    fail(check, detail);
  }
};

/// First divergence between two chronological traces (same length, and
/// every event's time, task, machine and duration compared with ==);
/// empty when they are bit-identical.
std::string diff_traces(const DispatchTrace& a, const DispatchTrace& b) {
  if (a.size() != b.size()) return "trace lengths diverge";
  for (std::size_t k = 0; k < a.size(); ++k) {
    const DispatchEvent& x = a.events[k];
    const DispatchEvent& y = b.events[k];
    if (x.when != y.when || x.task != y.task || x.machine != y.machine ||
        x.actual != y.actual) {
      return "trace event " + std::to_string(k) + " diverges (task " +
             std::to_string(x.task) + " vs " + std::to_string(y.task) + ")";
    }
  }
  return {};
}

/// First divergence between two dispatch results: schedule bytes, then
/// the trace. Empty when both are bit-identical.
template <typename A, typename B>
std::string diff_runs(const A& a, const B& b) {
  std::string diff = diff_schedules(a.schedule, b.schedule);
  if (diff.empty()) diff = diff_traces(a.trace, b.trace);
  return diff;
}

/// Earliest failure time per machine (infinity = never fails).
std::vector<Time> first_failure_times(const FuzzCase& c) {
  std::vector<Time> fail_time(c.instance.num_machines(), kNever);
  for (const MachineFailure& f : c.plan.failures) {
    fail_time[f.machine] = std::min(fail_time[f.machine], f.when);
  }
  return fail_time;
}

void check_online(const CheckContext& ctx, const DispatchResult& online) {
  const FuzzCase& c = ctx.c;
  std::vector<Violation> violations =
      check_invariants(c.instance, c.placement, c.actual, online.schedule);
  const auto priority_violations = check_priority_compliance(
      c.instance, c.placement, online.schedule, c.priority);
  violations.insert(violations.end(), priority_violations.begin(),
                    priority_violations.end());
  if (online.trace.size() != c.instance.num_tasks()) {
    violations.push_back(Violation{
        "trace-accounting", "online trace has " + std::to_string(online.trace.size()) +
                                " events for " +
                                std::to_string(c.instance.num_tasks()) + " tasks"});
  }
  ctx.fail_violations("online-invariants", violations);
}

void check_online_reference_differential(const CheckContext& ctx,
                                         const DispatchResult& online) {
  // The struct-of-arrays core must be bit-exact against the retained
  // pre-rewrite dispatcher: same schedule bytes and the same decision
  // sequence (every trace event's time, task, machine and duration), with
  // the case's speeds and on identical machines (speeds exercise a
  // separate division).
  const FuzzCase& c = ctx.c;
  const DispatchResult fast =
      dispatch_online(c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  const DispatchResult reference = reference_dispatch_online(
      c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  const DispatchResult reference_plain = reference_dispatch_online(
      c.instance, c.placement, c.actual, c.priority);
  if (const std::string diff = diff_runs(fast, reference); !diff.empty()) {
    ctx.fail("online-reference-differential", diff + " (with speeds)");
    return;
  }
  if (const std::string diff = diff_runs(online, reference_plain); !diff.empty()) {
    ctx.fail("online-reference-differential", diff);
  }
}

void check_failures_empty_plan(const CheckContext& ctx,
                               const DispatchResult& online) {
  const FuzzCase& c = ctx.c;
  const FailureDispatchResult no_failures = dispatch_with_failures(
      c.instance, c.placement, c.actual, c.priority, FailurePlan{});
  if (const std::string diff = diff_schedules(online.schedule, no_failures.schedule);
      !diff.empty()) {
    ctx.fail("failures-empty-plan-parity", diff);
    return;
  }
  if (no_failures.restarts != 0 || no_failures.refetches != 0) {
    ctx.fail("failures-empty-plan-parity",
             "empty plan reported restarts/refetches");
  }
}

void check_failures_differential(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const FailureDispatchResult fast =
      dispatch_with_failures(c.instance, c.placement, c.actual, c.priority, c.plan);
  const FailureDispatchResult reference = reference_dispatch_with_failures(
      c.instance, c.placement, c.actual, c.priority, c.plan);
  if (const std::string diff = diff_schedules(fast.schedule, reference.schedule);
      !diff.empty()) {
    ctx.fail("failures-reference-differential", diff);
    return;
  }
  if (fast.restarts != reference.restarts || fast.refetches != reference.refetches ||
      fast.trace.size() != reference.trace.size()) {
    ctx.fail("failures-reference-differential",
             "restart/refetch/trace counters diverge from the reference");
  }
}

void check_failures_invariants(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const FailureDispatchResult result =
      dispatch_with_failures(c.instance, c.placement, c.actual, c.priority, c.plan);

  InvariantOptions options;
  options.off_placement_ok.assign(n, false);
  options.extra_duration.assign(n, 0.0);
  std::size_t off_placement = 0;
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i != kNoMachine && !c.placement.allows(j, i)) {
      // Off-placement <=> refetched: the only way a task may leave its
      // replica set is losing every replica, which also adds the penalty.
      options.off_placement_ok[j] = true;
      options.extra_duration[j] = c.plan.refetch_penalty;
      ++off_placement;
    }
  }
  std::vector<Violation> violations = check_invariants(
      c.instance, c.placement, c.actual, result.schedule, options);
  if (off_placement != result.refetches) {
    violations.push_back(Violation{
        "refetch-accounting",
        std::to_string(off_placement) + " tasks ran off-placement but " +
            std::to_string(result.refetches) + " refetches were reported"});
  }
  if (result.trace.size() != n + result.restarts) {
    violations.push_back(Violation{
        "trace-accounting",
        "trace has " + std::to_string(result.trace.size()) + " events, expected " +
            std::to_string(n) + " finals + " + std::to_string(result.restarts) +
            " restarts"});
  }
  // A surviving run must fit entirely before its machine's failure.
  const std::vector<Time> fail_time = first_failure_times(c);
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i == kNoMachine || i >= fail_time.size()) continue;
    if (result.schedule.finish[j] > fail_time[i] + kTol) {
      violations.push_back(Violation{
          "failure-fencing", "task " + std::to_string(j) +
                                 " finishes after machine " + std::to_string(i) +
                                 " failed"});
    }
  }
  ctx.fail_violations("failures-invariants", violations);
}

TransferModel zero_cost_model() {
  TransferModel model;
  model.bandwidth = std::numeric_limits<double>::infinity();
  model.latency = 0.0;
  return model;
}

void check_transfer_zero_cost_parity(const CheckContext& ctx) {
  // On full replication every task is local, so the fetch machinery is
  // provably inert and the transfer dispatcher must collapse to the
  // plain one bit-for-bit. (On arbitrary placements the locality
  // preference legitimately changes schedules even at zero cost; the
  // zero-fetch *duration* invariant below covers that regime.)
  const FuzzCase& c = ctx.c;
  const Placement everywhere =
      Placement::everywhere(c.instance.num_tasks(), c.instance.num_machines());
  const DispatchResult online =
      dispatch_online(c.instance, everywhere, c.actual, c.priority);
  const TransferDispatchResult transfer = dispatch_with_transfers(
      c.instance, everywhere, c.actual, c.priority, zero_cost_model());
  if (const std::string diff = diff_schedules(online.schedule, transfer.schedule);
      !diff.empty()) {
    ctx.fail("transfer-zero-cost-parity", diff);
    return;
  }
  if (transfer.remote_runs != 0 || transfer.transfer_time != 0.0) {
    ctx.fail("transfer-zero-cost-parity",
             "zero-cost model on full replication reported fetches");
  }
}

void check_transfer_zero_cost_invariants(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const TransferDispatchResult result = dispatch_with_transfers(
      c.instance, c.placement, c.actual, c.priority, zero_cost_model());
  InvariantOptions options;
  options.off_placement_ok.assign(n, false);
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i != kNoMachine && !c.placement.allows(j, i)) {
      options.off_placement_ok[j] = true;  // remote, but the fetch is free
    }
  }
  std::vector<Violation> violations = check_invariants(
      c.instance, c.placement, c.actual, result.schedule, options);
  if (result.transfer_time != 0.0) {
    violations.push_back(Violation{
        "transfer-accounting", "zero-cost model accumulated transfer time"});
  }
  const auto priority_violations = check_transfer_priority_compliance(
      c.instance, c.placement, result.schedule, c.priority);
  violations.insert(violations.end(), priority_violations.begin(),
                    priority_violations.end());
  ctx.fail_violations("transfer-zero-cost-invariants", violations);
}

void check_transfer_invariants(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const TransferDispatchResult result = dispatch_with_transfers(
      c.instance, c.placement, c.actual, c.priority, c.transfer);
  InvariantOptions options;
  options.off_placement_ok.assign(n, false);
  options.extra_duration.assign(n, 0.0);
  std::size_t remote = 0;
  Time fetch_total = 0;
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment[j];
    if (i != kNoMachine && !c.placement.allows(j, i)) {
      const Time fetch =
          c.transfer.latency + c.instance.size(j) / c.transfer.bandwidth;
      options.off_placement_ok[j] = true;
      options.extra_duration[j] = fetch;
      fetch_total += fetch;
      ++remote;
    }
  }
  std::vector<Violation> violations = check_invariants(
      c.instance, c.placement, c.actual, result.schedule, options);
  if (remote != result.remote_runs) {
    violations.push_back(Violation{
        "transfer-accounting",
        std::to_string(remote) + " off-placement runs but " +
            std::to_string(result.remote_runs) + " remote_runs reported"});
  }
  const Time scale = std::max({fetch_total, result.transfer_time, Time{1}});
  if (std::abs(fetch_total - result.transfer_time) > kTol * scale) {
    violations.push_back(Violation{
        "transfer-accounting", "transfer_time does not equal the sum of fetches"});
  }
  const auto priority_violations = check_transfer_priority_compliance(
      c.instance, c.placement, result.schedule, c.priority);
  violations.insert(violations.end(), priority_violations.begin(),
                    priority_violations.end());
  ctx.fail_violations("transfer-invariants", violations);
}

void check_transfer_reference_differential(const CheckContext& ctx) {
  // Bit-exact against the naive rescan-every-task oracle, under the
  // case's priced model and under a free one (where remote and local
  // runs cost the same and only the locality preference decides).
  const FuzzCase& c = ctx.c;
  for (const TransferModel& model : {c.transfer, zero_cost_model()}) {
    const TransferDispatchResult fast = dispatch_with_transfers(
        c.instance, c.placement, c.actual, c.priority, model);
    const TransferDispatchResult reference = reference_dispatch_with_transfers(
        c.instance, c.placement, c.actual, c.priority, model);
    std::string diff = diff_runs(fast, reference);
    if (diff.empty() && (fast.remote_runs != reference.remote_runs ||
                         fast.transfer_time != reference.transfer_time)) {
      diff = "remote_runs/transfer_time diverge from the reference";
    }
    if (!diff.empty()) {
      ctx.fail("transfer-reference-differential",
               diff + " (bandwidth " + std::to_string(model.bandwidth) + ")");
      return;
    }
  }
}

void check_speculative_disabled(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const DispatchResult online =
      dispatch_online(c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  SpeculationPolicy off;
  off.enabled = false;
  const SpeculativeResult spec =
      dispatch_speculative(c.instance, c.placement, c.actual, c.priority,
                           SpeedProfile(c.speeds), off);
  if (const std::string diff = diff_schedules(online.schedule, spec.schedule);
      !diff.empty()) {
    ctx.fail("speculative-disabled-parity", diff);
    return;
  }
  if (spec.duplicates_launched != 0 || spec.wasted_time != 0.0) {
    ctx.fail("speculative-disabled-parity",
             "disabled speculation launched duplicates");
  }
}

void check_speculative_enabled(const CheckContext& ctx) {
  const FuzzCase& c = ctx.c;
  const DispatchResult online =
      dispatch_online(c.instance, c.placement, c.actual, c.priority, {}, c.speeds);
  SpeculationPolicy policy;  // defaults: enabled, max 2 copies
  const SpeculativeResult spec =
      dispatch_speculative(c.instance, c.placement, c.actual, c.priority,
                           SpeedProfile(c.speeds), policy);
  std::vector<Violation> violations;
  const Time scale = std::max({spec.makespan, online.schedule.makespan(), Time{1}});
  if (spec.makespan > online.schedule.makespan() + kTol * scale) {
    violations.push_back(Violation{
        "speculation-regression",
        "speculative makespan " + std::to_string(spec.makespan) +
            " exceeds non-speculative " +
            std::to_string(online.schedule.makespan())});
  }
  InvariantOptions options;
  options.speeds = c.speeds;          // durations are speed-scaled
  options.check_lower_bound = false;  // identical-machine LB unsound here
  const auto invariant_violations = check_invariants(
      c.instance, c.placement, c.actual, spec.schedule, options);
  violations.insert(violations.end(), invariant_violations.begin(),
                    invariant_violations.end());
  ctx.fail_violations("speculative-invariants", violations);
}

void check_speculative_reference_differential(const CheckContext& ctx) {
  // Bit-exact against the naive O(n)-scan oracle -- schedule, trace and
  // backup counters -- in three regimes: the case as drawn; every third
  // machine a 0.25-speed straggler with up to three copies; and the same
  // stragglers with every estimate equal, so backup candidates that
  // started together tie on their earliest estimated finish and the
  // lowest-id rule decides (eager duplication of overdue tasks allowed).
  const FuzzCase& c = ctx.c;
  const MachineId m = c.instance.num_machines();
  std::vector<double> stragglers(m, 1.0);
  for (MachineId i = static_cast<MachineId>(c.seed % 3); i < m; i += 3) {
    stragglers[i] = 0.25;
  }
  std::vector<Task> flat(c.instance.tasks().begin(), c.instance.tasks().end());
  for (Task& task : flat) task.estimate = 4.0;
  const Instance equal_estimates(std::move(flat), m, c.instance.alpha());
  struct Variant {
    const Instance& instance;
    const std::vector<double>& speeds;
    unsigned max_copies;
    Time min_estimated_remaining;
    const char* name;
  };
  const Variant variants[] = {
      {c.instance, c.speeds, 2, 0.0, "drawn speeds"},
      {c.instance, stragglers, 3, 0.0, "stragglers"},
      {equal_estimates, stragglers, 2 + static_cast<unsigned>(c.seed % 2), -1.0,
       "equal estimates"},
  };
  for (const Variant& v : variants) {
    SpeculationPolicy policy;
    policy.max_copies = v.max_copies;
    policy.min_estimated_remaining = v.min_estimated_remaining;
    const SpeedProfile speeds(v.speeds);
    const SpeculativeResult fast = dispatch_speculative(
        v.instance, c.placement, c.actual, c.priority, speeds, policy);
    const SpeculativeResult reference = reference_dispatch_speculative(
        v.instance, c.placement, c.actual, c.priority, speeds, policy);
    std::string diff = diff_runs(fast, reference);
    if (diff.empty() && (fast.duplicates_launched != reference.duplicates_launched ||
                         fast.duplicates_won != reference.duplicates_won ||
                         fast.wasted_time != reference.wasted_time)) {
      diff = "launched/won/wasted counters diverge from the reference";
    }
    if (!diff.empty()) {
      ctx.fail("speculative-reference-differential",
               diff + " (" + v.name + ")");
      return;
    }
  }
}

void check_certify_ptas_lb(const CheckContext& ctx) {
  // Certify cross-check: on sub-22-task instances branch-and-bound
  // brackets the true optimum, so the Hochbaum-Shmoys backend's certified
  // lower bound must never exceed bnb.upper (ptas.lower <= OPT <=
  // bnb.upper), and its measured schedule can never beat bnb.lower.
  const FuzzCase& c = ctx.c;
  const std::span<const Time> p = c.actual.actual;
  const MachineId m = c.instance.num_machines();
  const CertifiedCmax bnb = certified_cmax(p, m, 500'000);
  const CertifiedCmax ptas =
      hs_certified_cmax(p, m, 3 + static_cast<unsigned>(c.seed % 3));
  const Time scale = std::max({bnb.upper, ptas.upper, Time{1}});
  if (ptas.lower > bnb.upper + kTol * scale) {
    ctx.fail("certify-ptas-lower-bound",
             "PTAS certified lower " + std::to_string(ptas.lower) +
                 " exceeds B&B optimum upper " + std::to_string(bnb.upper));
  }
  if (bnb.lower > ptas.upper + kTol * scale) {
    ctx.fail("certify-ptas-lower-bound",
             "PTAS schedule makespan " + std::to_string(ptas.upper) +
                 " undercuts the certified B&B lower bound " +
                 std::to_string(bnb.lower));
  }
  if (ptas.lower > ptas.upper + kTol * scale) {
    ctx.fail("certify-ptas-lower-bound",
             "PTAS bracket inverted: lower " + std::to_string(ptas.lower) +
                 " > upper " + std::to_string(ptas.upper));
  }
}

void check_serve_drain_parity(const CheckContext& ctx) {
  // Drain mode: every task arrives at t = 0. serve_stream and
  // dispatch_online run the same loop there on this case's overlapping
  // placement, so comparing them would be a tautology; instead drain
  // mode must reproduce the retained offline oracle -- bit-identical
  // schedule bytes AND chronological trace, with all n tasks backlogged
  // at once -- with the case's speeds, on identical machines, and from
  // non-zero initial ready times (ABO's path). This is the serve/
  // equivalence contract in docs/SERVING.md.
  const FuzzCase& c = ctx.c;
  const MachineId m = c.instance.num_machines();
  const std::vector<Time> arrivals(c.instance.num_tasks(), Time{0});
  std::vector<Time> busy(m);
  for (MachineId i = 0; i < m; ++i) {
    busy[i] = 0.5 * static_cast<double>((i * 7 + c.seed) % 5);
  }
  struct Variant {
    std::vector<Time> initial_ready;
    std::vector<double> speeds;
    const char* name;
  };
  const Variant variants[] = {
      {{}, c.speeds, "with speeds"},
      {{}, {}, "identical machines"},
      {busy, {}, "initial ready"},
  };
  for (const Variant& v : variants) {
    const StreamingDispatchResult drained =
        serve_stream(c.instance, c.placement, c.actual, c.priority, arrivals,
                     v.initial_ready, v.speeds);
    const DispatchResult reference = reference_dispatch_online(
        c.instance, c.placement, c.actual, c.priority, v.initial_ready, v.speeds);
    std::string diff = diff_runs(drained, reference);
    if (diff.empty() && drained.peak_backlog != c.instance.num_tasks()) {
      diff = "drain-mode peak backlog " + std::to_string(drained.peak_backlog) +
             " != n";
    }
    if (!diff.empty()) {
      ctx.fail("serve-drain-parity", diff + " (" + v.name + ")");
      return;
    }
  }
}

void check_serve_stream_parity(const CheckContext& ctx) {
  // Staggered arrivals, the regime a service runs in: serve_stream must
  // match the naive streaming oracle bit-for-bit (schedule, trace and
  // peak backlog) and pass the release-aware invariants, priority
  // compliance among admitted tasks included. Placements: the
  // case's own, usually overlapping, and the paper's three shapes built
  // from it (singleton, groups, full replication), where every machine
  // serves one replica set. Streams: Poisson arrivals snapped to a grid,
  // so arrivals tie; MMPP-2 bursts at integer times over integer actuals
  // and integer initial ready times, so arrivals also tie with machines
  // coming free; and integer Poisson arrivals shuffled across tasks, so
  // task order is not time order.
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const MachineId m = c.instance.num_machines();

  std::vector<MachineId> first(n);
  for (TaskId j = 0; j < n; ++j) first[j] = c.placement.machines_for(j).front();
  std::vector<MachineId> divisors;
  for (MachineId k = 1; k <= m; ++k) {
    if (m % k == 0) divisors.push_back(k);
  }
  const MachineId groups = divisors[c.seed % divisors.size()];
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = first[j] / (m / groups);
  struct NamedPlacement {
    Placement placement;
    const char* name;
  };
  const NamedPlacement placements[] = {
      {c.placement, "drawn placement"},
      {Placement::singleton(first, m), "singleton"},
      {Placement::in_groups(group_of, groups, m), "groups"},
      {Placement::everywhere(n, m), "everywhere"},
  };

  Realization integral;
  integral.actual.resize(n);
  Time total = 0;
  for (TaskId j = 0; j < n; ++j) {
    integral.actual[j] = std::max(Time{1}, std::round(c.actual[j]));
    total += c.actual[j];
  }
  const Time mean_actual = total / static_cast<double>(n);
  ArrivalParams params;
  params.rate = (0.5 + 0.3 * static_cast<double>(c.seed % 4)) *
                static_cast<double>(m) / mean_actual;
  params.burst_boost = 3.0;
  params.burst_on = 2.0 * mean_actual;
  params.burst_off = 6.0 * mean_actual;
  const auto snapped = [&](ArrivalModel model, std::uint64_t seed, Time grid) {
    params.model = model;
    params.seed = seed;
    std::vector<Time> arrivals = generate_arrivals(params, n);
    for (Time& t : arrivals) t = std::floor(t / grid) * grid;
    return arrivals;
  };
  const Time grid = mean_actual / 4.0;
  std::vector<Time> shuffled = snapped(ArrivalModel::kPoisson, c.seed + 3, 1.0);
  Xoshiro256 rng(c.seed + 4);
  shuffle(rng, shuffled);
  std::vector<Time> grid_ready(m), integer_ready(m);
  for (MachineId i = 0; i < m; ++i) {
    grid_ready[i] = grid * static_cast<double>(i % 3);
    integer_ready[i] = static_cast<double>((i * 7 + c.seed) % 4);
  }
  std::vector<double> binary_speeds(m);
  for (MachineId i = 0; i < m; ++i) binary_speeds[i] = i % 2 == 0 ? 1.0 : 2.0;
  struct Stream {
    std::vector<Time> arrivals;
    const Realization& actual;
    std::vector<Time> initial_ready;
    std::vector<double> speeds;
    const char* name;
  };
  const Stream streams[] = {
      {snapped(ArrivalModel::kPoisson, c.seed + 1, grid), c.actual, grid_ready,
       c.speeds, "poisson on a grid"},
      {snapped(ArrivalModel::kBurst, c.seed + 2, 1.0), integral, integer_ready,
       {}, "integer burst"},
      {shuffled, integral, {}, binary_speeds, "shuffled integer poisson"},
  };

  for (const NamedPlacement& p : placements) {
    for (const Stream& s : streams) {
      const std::string where =
          std::string(" (") + p.name + ", " + s.name + ")";
      const StreamingDispatchResult fast =
          serve_stream(c.instance, p.placement, s.actual, c.priority, s.arrivals,
                       s.initial_ready, s.speeds);
      const StreamingDispatchResult reference =
          reference_serve_stream(c.instance, p.placement, s.actual, c.priority,
                                 s.arrivals, s.initial_ready, s.speeds);
      std::string diff = diff_runs(fast, reference);
      if (diff.empty() && fast.peak_backlog != reference.peak_backlog) {
        diff = "peak backlog " + std::to_string(fast.peak_backlog) +
               " != reference " + std::to_string(reference.peak_backlog);
      }
      if (!diff.empty()) {
        ctx.fail("serve-stream-parity", diff + where);
        return;
      }
      InvariantOptions options;
      options.arrivals = s.arrivals;
      options.speeds = s.speeds;
      options.check_lower_bound = s.speeds.empty();  // unit speeds only
      std::vector<Violation> violations = check_invariants(
          c.instance, p.placement, s.actual, fast.schedule, options);
      // List Scheduling greed among admitted tasks (Theorem 4's premise).
      const auto priority_violations = check_priority_compliance(
          c.instance, p.placement, fast.schedule, c.priority, s.arrivals);
      violations.insert(violations.end(), priority_violations.begin(),
                        priority_violations.end());
      if (!violations.empty()) {
        violations.front().detail += where;
        ctx.fail_violations("serve-stream-parity", violations);
        return;
      }
    }
  }
}

void check_online_shape_parity(const CheckContext& ctx) {
  // dispatch_online serves disjoint replica sets on identical machines by
  // per-set list scheduling and derives the trace from the schedule
  // (sim/shape_dispatch). The drawn placements overlap, so this check
  // builds the shapes that take that path from the case -- singletons, a
  // grouping of uneven contiguous blocks that leaves one machine in no
  // set, and full replication -- and holds each to the retained oracle
  // bit for bit, schedule and trace. A second realization rounds the
  // actuals to integers and zeroes every fifth task, so starts tie
  // across machines and a machine runs zero-length tasks back to back.
  // The schedule-only entry is held to the same oracle schedule on every
  // shape, and through the kernel fallback on the drawn placement, with
  // and without the case's speeds.
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  const MachineId m = c.instance.num_machines();

  std::vector<MachineId> first(n);
  for (TaskId j = 0; j < n; ++j) first[j] = c.placement.machines_for(j).front();
  // Blocks of 1 to 5 machines over every machine but `idle` (kept only
  // when m = 1, since a set cannot be empty).
  const MachineId idle = static_cast<MachineId>(c.seed % m);
  std::vector<MachineId> used;
  for (MachineId i = 0; i < m; ++i) {
    if (i != idle || m == 1) used.push_back(i);
  }
  const std::size_t block = 1 + c.seed % 5;
  std::vector<std::vector<MachineId>> grouped(n);
  for (TaskId j = 0; j < n; ++j) {
    const std::size_t b = (first[j] % used.size()) / block * block;
    grouped[j].assign(used.begin() + static_cast<std::ptrdiff_t>(b),
                      used.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(b + block, used.size())));
  }
  struct NamedPlacement {
    Placement placement;
    const char* name;
  };
  const NamedPlacement placements[] = {
      {Placement::singleton(first, m), "singleton"},
      {Placement(std::move(grouped), m), "uneven groups"},
      {Placement::everywhere(n, m), "everywhere"},
  };

  Realization tied;
  tied.actual.resize(n);
  for (TaskId j = 0; j < n; ++j) {
    tied.actual[j] = j % 5 == 0 ? Time{0} : std::round(c.actual[j]);
  }
  struct NamedRealization {
    const Realization& actual;
    const char* name;
  };
  const NamedRealization realizations[] = {{c.actual, "drawn actuals"},
                                           {tied, "integer actuals"}};

  Schedule bare;
  const auto schedule_only_diff = [&](const Placement& placement,
                                      const Realization& actual,
                                      std::span<const double> speeds,
                                      const Schedule& reference) {
    dispatch_online_schedule(c.instance, placement, actual, c.priority, {}, speeds,
                             thread_workspace(), bare);
    return diff_schedules(bare, reference);
  };
  for (const NamedPlacement& p : placements) {
    for (const NamedRealization& r : realizations) {
      const DispatchResult fast =
          dispatch_online(c.instance, p.placement, r.actual, c.priority);
      const DispatchResult reference =
          reference_dispatch_online(c.instance, p.placement, r.actual, c.priority);
      std::string diff = diff_runs(fast, reference);
      if (diff.empty()) {
        diff = schedule_only_diff(p.placement, r.actual, {}, reference.schedule);
        if (!diff.empty()) diff = "schedule-only: " + diff;
      }
      if (!diff.empty()) {
        ctx.fail("online-shape-parity",
                 diff + " (" + p.name + ", " + r.name + ")");
        return;
      }
    }
  }
  // The drawn placement overlaps, so there the kernel fallback runs.
  const std::vector<double> unit_speeds;
  for (const std::vector<double>* speeds : {&unit_speeds, &c.speeds}) {
    const DispatchResult reference = reference_dispatch_online(
        c.instance, c.placement, c.actual, c.priority, {}, *speeds);
    if (const std::string diff =
            schedule_only_diff(c.placement, c.actual, *speeds, reference.schedule);
        !diff.empty()) {
      ctx.fail("online-shape-parity",
               "schedule-only: " + diff + " (drawn placement" +
                   (speeds->empty() ? ")" : ", with speeds)"));
      return;
    }
  }
}

void check_slo_reference_differential(const CheckContext& ctx) {
  // evaluate_slo groups tasks by window and places each start among its
  // window's arrivals; it must match the two-sort oracle
  // (check::reference_evaluate_slo) bit for bit on this case's serve
  // schedule, under a seed-drawn window width and sustain. Two streams:
  // Poisson arrivals snapped to a grid (ties) in id order, and the same
  // arrivals shuffled across tasks, which takes the sorted-copy path.
  const FuzzCase& c = ctx.c;
  const std::size_t n = c.instance.num_tasks();
  Time total = 0;
  for (TaskId j = 0; j < n; ++j) total += c.actual[j];
  const Time mean_actual = total / static_cast<double>(n);
  ArrivalParams params;
  params.rate = (0.5 + 0.3 * static_cast<double>(c.seed % 4)) *
                static_cast<double>(c.instance.num_machines()) / mean_actual;
  params.seed = c.seed + 5;
  std::vector<Time> in_order = generate_arrivals(params, n);
  const Time grid = mean_actual / 4.0;
  for (Time& t : in_order) t = std::floor(t / grid) * grid;
  std::vector<Time> shuffled = in_order;
  Xoshiro256 rng(c.seed + 6);
  shuffle(rng, shuffled);
  constexpr double kWidths[] = {0.3, 1.0 / 3.0, 1.0, 2.5, 7.3};
  SloSpec spec;
  spec.p50 = mean_actual;
  spec.p99 = 2.0 * mean_actual;
  spec.backlog = 0.5 * static_cast<double>(c.instance.num_machines());
  spec.window_seconds = mean_actual * kWidths[rng.next_below(std::size(kWidths))];
  spec.sustain = 1 + rng.next_below(5);
  for (const std::vector<Time>* arrivals : {&in_order, &shuffled}) {
    const StreamingDispatchResult run =
        serve_stream(c.instance, c.placement, c.actual, c.priority, *arrivals);
    const std::string diff =
        diff_slo_reports(evaluate_slo(run.schedule, *arrivals, spec),
                         reference_evaluate_slo(run.schedule, *arrivals, spec));
    if (!diff.empty()) {
      ctx.fail("slo-reference-differential",
               diff + (arrivals == &in_order ? " (arrivals in id order)"
                                             : " (shuffled arrivals)"));
      return;
    }
  }
}

void check_adaptive_bound(const CheckContext& ctx) {
  // Adaptive-degree soundness: warm an estimator on the case's own
  // (estimate, actual) history, let the adaptive policy pick per-class
  // degrees from it, dispatch, and demand the realized ratio stays under
  // the theorem bound the placement's degrees promise at the *realized*
  // alpha (not the declared one -- in the drifting scenario the actuals
  // leave the declared band on purpose). The ratio is measured against
  // the certified B&B lower bound, which is at most OPT, so this check
  // is strictly harder than the theorem statement.
  const FuzzCase& c = ctx.c;
  const MachineId m = c.instance.num_machines();
  AdaptiveGroupOptions options;
  options.estimator.num_classes = 3;
  options.estimator.min_samples = 4;
  auto estimator = std::make_shared<AlphaEstimator>(options.estimator);
  const TaskClassifier classifier(c.instance, options.estimator.num_classes);
  estimator->observe_run(classifier, c.instance, c.actual);
  const TwoPhaseStrategy strategy = make_adaptive_group(estimator, options);

  const Placement placement = strategy.place(c.instance);
  const DispatchResult run =
      dispatch_online(c.instance, placement, c.actual,
                      make_priority(c.instance, strategy.rule()));
  const double alpha_real = realized_alpha(c.instance, c.actual);
  const double bound = adaptive_theorem_bound(placement, alpha_real, m);
  const CertifiedCmax opt = certified_cmax(c.actual.actual, m, 500'000);
  const Time makespan = run.schedule.makespan();
  if (makespan > bound * opt.lower * (1.0 + kTol)) {
    ctx.fail("adaptive-bound",
             "adaptive makespan " + std::to_string(makespan) + " exceeds " +
                 std::to_string(bound) + " x certified lower bound " +
                 std::to_string(opt.lower) + " at realized alpha " +
                 std::to_string(alpha_real));
  }
}

}  // namespace

FuzzScenario fuzz_scenario_from_name(const std::string& name) {
  if (name == "default") return FuzzScenario::kDefault;
  if (name == "drifting-alpha") return FuzzScenario::kDriftingAlpha;
  if (name == "ties") return FuzzScenario::kTies;
  throw std::invalid_argument("unknown fuzz scenario '" + name +
                              "' (use default|drifting-alpha|ties)");
}

std::size_t checks_per_case() noexcept { return kChecksPerCase; }

std::vector<FuzzFailure> run_fuzz_case(const FuzzCase& fuzz_case) {
  std::vector<FuzzFailure> failures;
  const CheckContext ctx{fuzz_case, failures};
  const DispatchResult online = dispatch_online(
      fuzz_case.instance, fuzz_case.placement, fuzz_case.actual, fuzz_case.priority);
  check_online(ctx, online);
  check_online_reference_differential(ctx, online);
  check_failures_empty_plan(ctx, online);
  check_failures_differential(ctx);
  check_failures_invariants(ctx);
  check_transfer_zero_cost_parity(ctx);
  check_transfer_zero_cost_invariants(ctx);
  check_transfer_invariants(ctx);
  check_speculative_disabled(ctx);
  check_speculative_enabled(ctx);
  check_certify_ptas_lb(ctx);
  check_serve_drain_parity(ctx);
  check_adaptive_bound(ctx);
  check_transfer_reference_differential(ctx);
  check_speculative_reference_differential(ctx);
  check_serve_stream_parity(ctx);
  check_online_shape_parity(ctx);
  check_slo_reference_differential(ctx);
  return failures;
}

std::size_t shrink_failing_case(const FuzzCase& fuzz_case,
                                const std::function<bool(const FuzzCase&)>& fails) {
  std::size_t lo = 1;
  std::size_t hi = fuzz_case.instance.num_tasks();
  // Invariant: the hi-task prefix fails (the full case does by
  // assumption). Plain binary search; without strict monotonicity it
  // still lands on *a* failing prefix, which is all a repro needs.
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (fails(restrict_tasks(fuzz_case, mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

std::string to_jsonl_line(const FuzzFailure& failure) {
  JsonObject obj;
  obj["seed"] = JsonValue(static_cast<unsigned long long>(failure.seed));
  obj["n"] = JsonValue(static_cast<unsigned long long>(failure.num_tasks));
  obj["m"] = JsonValue(static_cast<unsigned long long>(failure.num_machines));
  obj["check"] = JsonValue(failure.check);
  obj["detail"] = JsonValue(failure.detail);
  obj["shrunk_n"] = JsonValue(static_cast<unsigned long long>(failure.shrunk_tasks));
  return JsonValue(std::move(obj)).dump();
}

void save_jsonl_report(const std::string& path,
                       const std::vector<FuzzFailure>& failures) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("save_jsonl_report: cannot open '" + path + "'");
  }
  for (const FuzzFailure& failure : failures) {
    out << to_jsonl_line(failure) << '\n';
  }
}

FuzzSummary run_fuzz(const FuzzOptions& options) {
  obs::ScopedSpan span(obs::tracer(), "run_fuzz", "check");
  FuzzSummary summary;
  summary.cases = options.seeds;
  summary.checks = options.seeds * kChecksPerCase;
  if (options.seeds == 0) return summary;

  // Index-addressed failure slots keep the report deterministic and
  // independent of the worker count.
  std::vector<std::vector<FuzzFailure>> slots(options.seeds);
  const auto fuzz_one = [&](std::size_t index) {
    const FuzzCase fuzz_case =
        make_fuzz_case(options.start_seed + index, options.gen);
    std::vector<FuzzFailure> failures = run_fuzz_case(fuzz_case);
    if (!failures.empty() && options.shrink) {
      for (FuzzFailure& failure : failures) {
        const std::string check = failure.check;
        failure.shrunk_tasks =
            shrink_failing_case(fuzz_case, [&](const FuzzCase& candidate) {
              const auto candidate_failures = run_fuzz_case(candidate);
              return std::any_of(candidate_failures.begin(),
                                 candidate_failures.end(),
                                 [&](const FuzzFailure& f) {
                                   return f.check == check;
                                 });
            });
      }
    }
    slots[index] = std::move(failures);
  };

  if (options.jobs == 1 || options.seeds == 1) {
    for (std::size_t i = 0; i < options.seeds; ++i) fuzz_one(i);
  } else {
    ThreadPool pool(options.jobs);
    parallel_for_each_index(pool, options.seeds, fuzz_one);
  }

  for (std::vector<FuzzFailure>& slot : slots) {
    summary.failures.insert(summary.failures.end(),
                            std::make_move_iterator(slot.begin()),
                            std::make_move_iterator(slot.end()));
  }
  if (obs::MetricsRegistry* mx = obs::metrics()) {
    mx->counter("check.fuzz.cases").add(summary.cases);
    mx->counter("check.fuzz.checks").add(summary.checks);
    mx->counter("check.fuzz.failures").add(summary.failures.size());
  }
  if (options.log != nullptr) {
    *options.log << "fuzz: " << summary.cases << " seeds, " << summary.checks
                 << " cross-checks, " << summary.failures.size() << " failure(s)\n";
    for (const FuzzFailure& failure : summary.failures) {
      *options.log << "  seed " << failure.seed << " [" << failure.check
                   << "] n=" << failure.num_tasks << " m=" << failure.num_machines
                   << " shrunk_n=" << failure.shrunk_tasks << ": " << failure.detail
                   << "\n";
    }
  }
  return summary;
}

}  // namespace rdp::check
