// Tests for the streaming dispatch service (serve/): arrival-process
// generators, the streaming dispatcher's semantics and its drain-mode
// bit-parity contract with dispatch_online, response-time stats, and the
// service-layer glue. docs/SERVING.md walks through the contracts
// exercised here.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/strategy.hpp"
#include "check/invariants.hpp"
#include "check/reference_dispatcher.hpp"
#include "check/reference_slo.hpp"
#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "perturb/stochastic.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/window.hpp"
#include "serve/arrivals.hpp"
#include "serve/service.hpp"
#include "serve/slo.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/online_dispatcher.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace rdp {
namespace {

// ---------------------------------------------------------------------------
// Arrival processes

TEST(Arrivals, PoissonSortedPositiveAndMeanRate) {
  ArrivalParams params;
  params.model = ArrivalModel::kPoisson;
  params.rate = 20.0;
  params.seed = 7;
  const std::size_t n = 20000;
  const std::vector<Time> arrivals = generate_arrivals(params, n);
  ASSERT_EQ(arrivals.size(), n);
  EXPECT_GT(arrivals.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));

  // Interarrival gaps of a Poisson process are i.i.d. Exp(rate): the
  // empirical mean must sit near 1/rate and, the exponential signature,
  // the coefficient of variation near 1. Wide tolerances -- this is a
  // fixed-seed sanity check, not a statistical test suite.
  std::vector<double> gaps(n);
  gaps[0] = arrivals[0];
  for (std::size_t k = 1; k < n; ++k) gaps[k] = arrivals[k] - arrivals[k - 1];
  double sum = 0.0;
  for (double g : gaps) sum += g;
  const double mean = sum / static_cast<double>(n);
  EXPECT_NEAR(mean, 1.0 / params.rate, 0.05 / params.rate);
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(n - 1);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(Arrivals, PoissonQuantilesMatchExponential) {
  // KS-style check at a few fixed probes: the empirical CDF of the
  // interarrival gaps stays within a few percent of 1 - exp(-rate x).
  ArrivalParams params;
  params.model = ArrivalModel::kPoisson;
  params.rate = 5.0;
  params.seed = 11;
  const std::size_t n = 20000;
  const std::vector<Time> arrivals = generate_arrivals(params, n);
  std::vector<double> gaps(n);
  gaps[0] = arrivals[0];
  for (std::size_t k = 1; k < n; ++k) gaps[k] = arrivals[k] - arrivals[k - 1];
  for (const double x : {0.05, 0.2, 0.5}) {
    std::size_t below = 0;
    for (double g : gaps) below += g <= x ? 1 : 0;
    const double empirical = static_cast<double>(below) / static_cast<double>(n);
    const double expected = 1.0 - std::exp(-params.rate * x);
    EXPECT_NEAR(empirical, expected, 0.02) << "probe x=" << x;
  }
}

TEST(Arrivals, BurstKeepsLongRunMeanRate) {
  // The MMPP-2 off-phase rate is derived so the long-run mean equals
  // `rate` exactly; over many phase cycles the realized rate converges.
  ArrivalParams params;
  params.model = ArrivalModel::kBurst;
  params.rate = 50.0;
  params.burst_boost = 4.0;
  params.burst_on = 0.5;
  params.burst_off = 2.0;
  params.seed = 13;
  const std::size_t n = 50000;
  const std::vector<Time> arrivals = generate_arrivals(params, n);
  ASSERT_EQ(arrivals.size(), n);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  const double realized = static_cast<double>(n) / arrivals.back();
  EXPECT_NEAR(realized, params.rate, 0.1 * params.rate);
}

TEST(Arrivals, BurstIsBurstierThanPoisson) {
  // Same mean rate, heavier short-term queueing: the gap coefficient of
  // variation of the MMPP-2 stream must exceed the Poisson value of 1.
  ArrivalParams poisson;
  poisson.model = ArrivalModel::kPoisson;
  poisson.rate = 50.0;
  poisson.seed = 17;
  ArrivalParams burst = poisson;
  burst.model = ArrivalModel::kBurst;
  burst.burst_boost = 4.0;
  const std::size_t n = 30000;
  const auto cv = [n](const std::vector<Time>& arrivals) {
    std::vector<double> gaps(n);
    gaps[0] = arrivals[0];
    for (std::size_t k = 1; k < n; ++k) gaps[k] = arrivals[k] - arrivals[k - 1];
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    return std::sqrt(var / static_cast<double>(n - 1)) / mean;
  };
  EXPECT_GT(cv(generate_arrivals(burst, n)),
            cv(generate_arrivals(poisson, n)) + 0.2);
}

TEST(Arrivals, UntilDurationStaysInWindow) {
  ArrivalParams params;
  params.model = ArrivalModel::kPoisson;
  params.rate = 100.0;
  params.seed = 3;
  const Time duration = 50.0;
  const std::vector<Time> arrivals = generate_arrivals_until(params, duration);
  ASSERT_FALSE(arrivals.empty());
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  EXPECT_GT(arrivals.front(), 0.0);
  EXPECT_LE(arrivals.back(), duration);
  // ~rate * duration arrivals in expectation.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), params.rate * duration,
              0.15 * params.rate * duration);
}

TEST(Arrivals, TraceRoundTripThroughIo) {
  // Release times survive the 4-column trace format to the format's
  // printed precision: synthesize -> serialize -> parse -> extract.
  WorkloadParams wp;
  wp.num_tasks = 64;
  wp.num_machines = 4;
  wp.alpha = 2.0;
  wp.seed = 9;
  const Instance instance = uniform_workload(wp, 1.0, 10.0);
  const Realization actual = realize(instance, NoiseModel::kUniform, 10);
  ArrivalParams params;
  params.model = ArrivalModel::kPoisson;
  params.rate = 8.0;
  params.seed = 21;
  const std::vector<Time> arrivals = generate_arrivals(params, wp.num_tasks);

  const Trace trace = make_synthetic_trace(instance, actual, arrivals);
  ASSERT_TRUE(trace.has_arrivals());
  const Trace back = parse_trace(trace_to_string(trace));
  ASSERT_TRUE(back.has_arrivals());
  const std::vector<Time> round = arrivals_from_trace(back);
  ASSERT_EQ(round.size(), arrivals.size());
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    EXPECT_NEAR(round[j], arrivals[j], 1e-9 * (1.0 + arrivals[j]))
        << "task " << j;
  }
}

TEST(Arrivals, BatchTraceHasNoArrivalColumn) {
  WorkloadParams wp;
  wp.num_tasks = 8;
  wp.num_machines = 2;
  wp.alpha = 2.0;
  wp.seed = 1;
  const Instance instance = uniform_workload(wp, 1.0, 4.0);
  const Realization actual = realize(instance, NoiseModel::kUniform, 2);
  const Trace batch = make_synthetic_trace(instance, actual);
  EXPECT_FALSE(batch.has_arrivals());
  EXPECT_THROW((void)arrivals_from_trace(batch), std::invalid_argument);
}

TEST(Arrivals, ModelNamesRoundTrip) {
  EXPECT_EQ(arrival_model_from_name("poisson"), ArrivalModel::kPoisson);
  EXPECT_EQ(arrival_model_from_name("burst"), ArrivalModel::kBurst);
  EXPECT_EQ(arrival_model_from_name("trace"), ArrivalModel::kTrace);
  EXPECT_THROW((void)arrival_model_from_name("nope"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Streaming dispatcher: drain-mode bit-parity with dispatch_online

void expect_bit_identical(const StreamingDispatchResult& serve,
                          const DispatchResult& offline, std::size_t n) {
  ASSERT_EQ(serve.trace.size(), offline.trace.size());
  for (TaskId j = 0; j < n; ++j) {
    ASSERT_EQ(serve.schedule.assignment.machine_of[j],
              offline.schedule.assignment.machine_of[j])
        << "assignment diverges at task " << j;
    ASSERT_EQ(serve.schedule.start[j], offline.schedule.start[j]);
    ASSERT_EQ(serve.schedule.finish[j], offline.schedule.finish[j]);
  }
  for (std::size_t e = 0; e < serve.trace.size(); ++e) {
    ASSERT_EQ(serve.trace.events[e].when, offline.trace.events[e].when);
    ASSERT_EQ(serve.trace.events[e].task, offline.trace.events[e].task);
    ASSERT_EQ(serve.trace.events[e].machine, offline.trace.events[e].machine);
    ASSERT_EQ(serve.trace.events[e].actual, offline.trace.events[e].actual);
  }
}

TEST(ServeDrainParity, TwoHundredSeedsBitExact) {
  // The acceptance contract: with every arrival at t = 0 the streaming
  // dispatcher makes the offline decisions -- same machines, same
  // floating-point start/finish arithmetic, same trace order -- across 200
  // randomized (workload, placement, speeds, initial_ready) draws. Drain
  // mode is the loop dispatch_online runs, so the comparison is against
  // the independent pre-rewrite oracle.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    WorkloadParams wp;
    wp.num_tasks = 40 + (seed % 7) * 25;
    wp.num_machines = static_cast<MachineId>(2 + seed % 7);
    wp.alpha = 1.5 + 0.1 * static_cast<double>(seed % 4);
    wp.seed = seed;
    const Instance instance = uniform_workload(wp, 1.0, 10.0);
    const std::size_t n = instance.num_tasks();
    const MachineId m = instance.num_machines();

    const MachineId groups = 1 + static_cast<MachineId>(seed % m);
    std::vector<MachineId> group_of(n);
    for (TaskId j = 0; j < n; ++j) {
      group_of[j] = static_cast<MachineId>((j + seed) % groups);
    }
    const Placement placement =
        m % groups == 0 ? Placement::in_groups(group_of, groups, m)
                        : Placement::everywhere(n, m);
    const std::vector<TaskId> priority = make_priority(
        instance, seed % 2 == 0 ? PriorityRule::kLongestEstimateFirst
                                : PriorityRule::kShortestEstimateFirst);
    const Realization actual =
        realize(instance, NoiseModel::kUniform, seed + 1000);

    std::vector<Time> initial_ready;
    std::vector<double> speeds;
    if (seed % 3 == 1) {
      initial_ready.resize(m);
      speeds.resize(m);
      for (MachineId i = 0; i < m; ++i) {
        initial_ready[i] = static_cast<Time>((i * 7 + seed) % 5);
        speeds[i] = 0.5 + 0.25 * static_cast<double>((i + seed) % 6);
      }
    }

    const std::vector<Time> zeros(n, Time{0});
    const StreamingDispatchResult drained =
        serve_stream(instance, placement, actual, priority, zeros,
                     initial_ready, speeds);
    const DispatchResult offline = check::reference_dispatch_online(
        instance, placement, actual, priority, initial_ready, speeds);
    expect_bit_identical(drained, offline, n);
    EXPECT_EQ(drained.peak_backlog, n) << "seed " << seed;
  }
}

TEST(ServeDrainParity, StaggeredArrivalsBeforeFirstFreeStillBitExact) {
  // Arrivals that differ but all land before any machine becomes ready
  // are semantically drain mode, yet take the bitmap admission path and
  // the stream-exhaustion compaction rather than the equal-time cohort
  // shortcut -- so this pins the general machinery to the offline
  // schedule too.
  WorkloadParams wp;
  wp.num_tasks = 300;
  wp.num_machines = 6;
  wp.alpha = 1.7;
  wp.seed = 77;
  const Instance instance = uniform_workload(wp, 1.0, 10.0);
  const std::size_t n = instance.num_tasks();
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % 3;
  const Placement placement = Placement::in_groups(group_of, 3, 6);
  const std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  const Realization actual = realize(instance, NoiseModel::kTwoPoint, 78);

  std::vector<Time> arrivals(n);
  for (TaskId j = 0; j < n; ++j) {
    arrivals[j] = 5.0 * static_cast<Time>(j) / static_cast<Time>(n);
  }
  const std::vector<Time> ready(wp.num_machines, Time{5.0});

  const StreamingDispatchResult streamed =
      serve_stream(instance, placement, actual, priority, arrivals,
                   std::vector<Time>(ready), {});
  const DispatchResult offline = dispatch_online(
      instance, placement, actual, priority, std::vector<Time>(ready), {});
  expect_bit_identical(streamed, offline, n);
  EXPECT_EQ(streamed.peak_backlog, n);
}

// ---------------------------------------------------------------------------
// Streaming dispatcher: online semantics

struct ServeFixture {
  Instance instance;
  Placement placement;
  std::vector<TaskId> priority;
  Realization actual;
  std::vector<Time> arrivals;
};

ServeFixture poisson_fixture(std::size_t n, MachineId m, MachineId groups,
                             double rate, std::uint64_t seed) {
  WorkloadParams wp;
  wp.num_tasks = n;
  wp.num_machines = m;
  wp.alpha = 1.5;
  wp.seed = seed;
  Instance instance = uniform_workload(wp, 1.0, 10.0);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % groups;
  Placement placement = Placement::in_groups(group_of, groups, m);
  std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  Realization actual = realize(instance, NoiseModel::kUniform, seed + 1);
  ArrivalParams params;
  params.model = ArrivalModel::kPoisson;
  params.rate = rate;
  params.seed = seed + 2;
  std::vector<Time> arrivals = generate_arrivals(params, n);
  return {std::move(instance), std::move(placement), std::move(priority),
          std::move(actual), std::move(arrivals)};
}

TEST(ServeStream, OnlineInvariantsHold) {
  const ServeFixture fx = poisson_fixture(800, 8, 4, 30.0, 5);
  const std::size_t n = fx.instance.num_tasks();
  const StreamingDispatchResult result = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);

  ASSERT_EQ(result.trace.size(), n);
  std::vector<int> dispatched(n, 0);
  Time prev = 0.0;
  for (const DispatchEvent& e : result.trace.events) {
    // Chronological trace, each task exactly once, on an allowed machine.
    EXPECT_GE(e.when, prev);
    prev = e.when;
    ASSERT_LT(e.task, n);
    EXPECT_EQ(dispatched[e.task]++, 0);
    EXPECT_TRUE(fx.placement.allows(e.task, e.machine));
    // A task can never start before it arrives.
    EXPECT_GE(e.when, fx.arrivals[e.task]) << "task " << e.task;
  }
  for (TaskId j = 0; j < n; ++j) {
    EXPECT_EQ(dispatched[j], 1);
    EXPECT_DOUBLE_EQ(result.schedule.finish[j],
                     result.schedule.start[j] + fx.actual[j]);
  }
  EXPECT_GE(result.peak_backlog, 1u);
  EXPECT_LE(result.peak_backlog, n);

  check::InvariantOptions options;
  options.arrivals = fx.arrivals;
  const std::vector<check::Violation> violations = check::check_invariants(
      fx.instance, fx.placement, fx.actual, result.schedule, options);
  EXPECT_TRUE(violations.empty()) << check::to_string(violations.front());
}

TEST(ServeStream, DispatchRespectsPriorityAmongAdmitted) {
  // Replay oracle for the admission bitmaps: at every dispatch, the
  // chosen task must be the highest-priority (lowest-rank) task that had
  // arrived by then (ties: arrivals at t are admitted before dispatches
  // at t), was not yet dispatched, and whose replica set contains the
  // machine.
  const ServeFixture fx = poisson_fixture(400, 6, 3, 25.0, 8);
  const std::size_t n = fx.instance.num_tasks();
  const StreamingDispatchResult result = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);

  std::vector<std::uint32_t> rank_of(n);
  for (std::uint32_t r = 0; r < n; ++r) rank_of[fx.priority[r]] = r;
  std::vector<int> done(n, 0);
  for (const DispatchEvent& e : result.trace.events) {
    for (TaskId j = 0; j < n; ++j) {
      if (done[j] || j == e.task) continue;
      if (fx.arrivals[j] > e.when) continue;
      if (!fx.placement.allows(j, e.machine)) continue;
      EXPECT_GT(rank_of[j], rank_of[e.task])
          << "machine " << e.machine << " at t=" << e.when << " ran task "
          << e.task << " past higher-priority admitted task " << j;
    }
    done[e.task] = 1;
  }
}

TEST(ServeStream, IdleMachineWaitsForArrivalsAndWakes) {
  // One machine, gapped arrivals: the machine must go idle after the
  // first task and pick up each later task at its arrival instant.
  const Instance instance = Instance::from_estimates({4.0, 2.0, 3.0}, 1, 2.0);
  const Placement placement = Placement::everywhere(3, 1);
  const std::vector<TaskId> priority = {0, 1, 2};
  const Realization actual{{1.0, 1.0, 2.0}};
  const std::vector<Time> arrivals = {0.0, 5.0, 5.5};

  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);
  EXPECT_DOUBLE_EQ(result.schedule.start[0], 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.finish[0], 1.0);
  // Parked from t=1 to the arrival at t=5.
  EXPECT_DOUBLE_EQ(result.schedule.start[1], 5.0);
  EXPECT_DOUBLE_EQ(result.schedule.finish[1], 6.0);
  // Task 2 arrived at 5.5 while the machine was busy; starts when free.
  EXPECT_DOUBLE_EQ(result.schedule.start[2], 6.0);
  EXPECT_DOUBLE_EQ(result.schedule.finish[2], 8.0);
  EXPECT_EQ(result.peak_backlog, 1u);
}

TEST(ServeStream, SimultaneousArrivalsWakeTheLowestParkedIds) {
  // Full replication, m = 4: machines 0, 2 and 3 park at t = 0 (nothing
  // has arrived) while machine 1 comes free at exactly t = 10, when two
  // tasks arrive. The takers are the two lowest ids among the parked and
  // the just-freed machines, in rank order: machine 0 runs task 1 and
  // machine 1 runs task 0. Machines 2 and 3 stay idle.
  const Instance instance = Instance::from_estimates({3.0, 5.0}, 4, 2.0);
  const Placement placement = Placement::everywhere(2, 4);
  const std::vector<TaskId> priority = {1, 0};
  const Realization actual{{3.0, 5.0}};
  const std::vector<Time> arrivals = {10.0, 10.0};

  const StreamingDispatchResult result = serve_stream(
      instance, placement, actual, priority, arrivals, {0.0, 10.0, 0.0, 0.0});
  EXPECT_EQ(result.schedule.assignment.machine_of[1], 0u);
  EXPECT_EQ(result.schedule.assignment.machine_of[0], 1u);
  EXPECT_EQ(result.schedule.start[0], 10.0);
  EXPECT_EQ(result.schedule.start[1], 10.0);
  EXPECT_EQ(result.peak_backlog, 2u);
}

TEST(ServeStream, OverlappingSetsWakeEveryParkedMachine) {
  // Machine A = 0 serves sets q1 = {0, 2} and q2 = {0, 1}; B = 1 serves
  // only q2 and C = 2 only q1. All three park, then task x in q2 and the
  // better-ranked task y in q1 arrive together. A takes y, so x runs only
  // because B was woken as well: waking one machine per admission would
  // wake A for x and leave B parked. This is why overlapping placements
  // keep the wake-all loop.
  const Instance instance = Instance::from_estimates({2.0, 4.0}, 3, 2.0);
  const Placement placement({{0, 1}, {0, 2}}, 3);  // x = task 0, y = task 1
  const std::vector<TaskId> priority = {1, 0};
  const Realization actual{{2.0, 4.0}};
  const std::vector<Time> arrivals = {5.0, 5.0};

  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);
  EXPECT_EQ(result.schedule.assignment.machine_of[1], 0u);
  EXPECT_EQ(result.schedule.start[1], 5.0);
  EXPECT_EQ(result.schedule.assignment.machine_of[0], 1u);
  EXPECT_EQ(result.schedule.start[0], 5.0);
}

TEST(ServeStream, LightLoadWakesAtMostOneMachinePerTask) {
  // Full replication at about a third of capacity: machines park between
  // arrivals, and each admission wakes at most the one machine that
  // takes it.
  const ServeFixture fx = poisson_fixture(2000, 8, 1, 0.5, 21);  // one group
  const std::size_t n = fx.instance.num_tasks();
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    const StreamingDispatchResult result = serve_stream(
        fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);
    ASSERT_EQ(result.trace.size(), n);
  }
  const std::uint64_t wakes = registry.counter("serve.stream.wakes").value();
  const std::uint64_t parks = registry.counter("serve.stream.parks").value();
  EXPECT_GT(wakes, 0u);
  EXPECT_LE(wakes, n);
  EXPECT_GE(parks, wakes);
}

TEST(ServeStream, MachineInNoReplicaSetRetiresInsteadOfParking) {
  // Overlapping sets {0, 1} and {1}; machine 2 holds neither. At t = 0
  // nothing has arrived: machines 0 and 1 park, machine 2 retires. Task 0
  // at t = 5 wakes 0 and 1; 0 runs it and 1 parks again, and 0 parks
  // once it frees at t = 7. Task 1 at t = 10 wakes 1, which runs it.
  // Four parks and three wakes in all; machine 2 never parks.
  const Instance instance = Instance::from_estimates({2.0, 2.0}, 3, 2.0);
  const Placement placement({{0, 1}, {1}}, 3);
  const std::vector<TaskId> priority = {0, 1};
  const Realization actual{{2.0, 2.0}};
  const std::vector<Time> arrivals = {5.0, 10.0};
  obs::MetricsRegistry registry;
  StreamingDispatchResult result;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    result = serve_stream(instance, placement, actual, priority, arrivals);
  }
  EXPECT_EQ(result.schedule.assignment.machine_of[0], 0u);
  EXPECT_EQ(result.schedule.start[0], 5.0);
  EXPECT_EQ(result.schedule.assignment.machine_of[1], 1u);
  EXPECT_EQ(result.schedule.start[1], 10.0);
  EXPECT_EQ(registry.counter("serve.stream.parks").value(), 4u);
  EXPECT_EQ(registry.counter("serve.stream.wakes").value(), 3u);
}

TEST(ServeStream, LaterArrivalOfHigherPriorityTaskPreemptsQueueOrder) {
  // Task 0 has the highest priority but arrives last: earlier arrivals
  // must not wait for it, and once it lands it goes next.
  const Instance instance = Instance::from_estimates({9.0, 2.0, 2.0, 2.0}, 1, 2.0);
  const Placement placement = Placement::everywhere(4, 1);
  const std::vector<TaskId> priority = {0, 1, 2, 3};
  const Realization actual{{9.0, 2.0, 2.0, 2.0}};
  const std::vector<Time> arrivals = {3.0, 0.0, 0.0, 0.0};

  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);
  // t=0: only tasks 1..3 admitted; rank order runs task 1 (finish 2).
  EXPECT_DOUBLE_EQ(result.schedule.start[1], 0.0);
  // t=2: task 0 not yet arrived; task 2 runs (finish 4).
  EXPECT_DOUBLE_EQ(result.schedule.start[2], 2.0);
  // t=4: task 0 (arrived at 3) outranks task 3.
  EXPECT_DOUBLE_EQ(result.schedule.start[0], 4.0);
  EXPECT_DOUBLE_EQ(result.schedule.start[3], 13.0);
}

TEST(ServeStream, HeterogeneousSpeedsScaleDurations) {
  const ServeFixture fx = poisson_fixture(200, 4, 2, 20.0, 12);
  const std::size_t n = fx.instance.num_tasks();
  const std::vector<double> speeds = {1.0, 2.0, 0.5, 4.0};
  const StreamingDispatchResult result =
      serve_stream(fx.instance, fx.placement, fx.actual, fx.priority,
                   fx.arrivals, {}, std::vector<double>(speeds));
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = result.schedule.assignment.machine_of[j];
    // finish = start + actual / speed, reproduced operation for
    // operation (subtracting start back off would reintroduce rounding).
    EXPECT_DOUBLE_EQ(result.schedule.finish[j],
                     result.schedule.start[j] + fx.actual[j] / speeds[i]);
  }
}

TEST(ServeStream, DeterministicAcrossRepeatedRuns) {
  const ServeFixture fx = poisson_fixture(500, 8, 4, 40.0, 19);
  const StreamingDispatchResult a = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);
  const StreamingDispatchResult b = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.peak_backlog, b.peak_backlog);
  for (std::size_t e = 0; e < a.trace.size(); ++e) {
    EXPECT_EQ(a.trace.events[e].task, b.trace.events[e].task);
    EXPECT_EQ(a.trace.events[e].machine, b.trace.events[e].machine);
    EXPECT_EQ(a.trace.events[e].when, b.trace.events[e].when);
  }
}

TEST(ServeStream, UnsortedArrivalsAdmitInTimeOrder) {
  // Arrival vectors are per-task and need not be sorted; admission order
  // is (time, id). Reversing the assignment of the same arrival times
  // must still produce starts no earlier than each task's release.
  const Instance instance = Instance::from_estimates({2.0, 2.0, 2.0, 2.0}, 2, 2.0);
  const Placement placement = Placement::everywhere(4, 2);
  const std::vector<TaskId> priority = {0, 1, 2, 3};
  const Realization actual{{2.0, 2.0, 2.0, 2.0}};
  const std::vector<Time> arrivals = {6.0, 4.0, 2.0, 0.0};

  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);
  for (TaskId j = 0; j < 4; ++j) {
    EXPECT_GE(result.schedule.start[j], arrivals[j]) << "task " << j;
  }
  // Task 3 (arrives first) starts immediately despite lowest priority.
  EXPECT_DOUBLE_EQ(result.schedule.start[3], 0.0);
}

TEST(ServeStream, ValidatesInputs) {
  const Instance instance = Instance::from_estimates({1.0, 2.0}, 2, 2.0);
  const Placement placement = Placement::everywhere(2, 2);
  const std::vector<TaskId> priority = {0, 1};
  const Realization actual{{1.0, 2.0}};
  const std::vector<Time> ok = {0.0, 0.0};

  EXPECT_NO_THROW(
      (void)serve_stream(instance, placement, actual, priority, ok));
  const std::vector<Time> short_arrivals = {0.0};
  EXPECT_THROW((void)serve_stream(instance, placement, actual, priority,
                                  short_arrivals),
               std::invalid_argument);
  const std::vector<Time> negative = {-1.0, 0.0};
  EXPECT_THROW(
      (void)serve_stream(instance, placement, actual, priority, negative),
      std::invalid_argument);
  const std::vector<Time> nan = {std::nan(""), 0.0};
  EXPECT_THROW((void)serve_stream(instance, placement, actual, priority, nan),
               std::invalid_argument);
  const std::vector<TaskId> bad_priority = {0, 0};
  EXPECT_THROW(
      (void)serve_stream(instance, placement, actual, bad_priority, ok),
      std::invalid_argument);
}

TEST(ServeStream, RejectsNonFiniteOrNegativeDurationsAndSpeeds) {
  const Instance instance = Instance::from_estimates({1.0, 2.0, 3.0, 4.0}, 2, 2.0);
  const Placement placement = Placement::everywhere(4, 2);
  const std::vector<TaskId> priority = {0, 1, 2, 3};
  const std::vector<Time> arrivals = {0.0, 1.0, 2.0, 3.0};
  const auto expect_named = [](auto&& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("serve_stream: ", 0), 0u) << e.what();
    }
  };
  for (const Time bad : {std::numeric_limits<Time>::quiet_NaN(), Time{-1.0},
                         std::numeric_limits<Time>::infinity()}) {
    Realization actual{{1.0, 2.0, 3.0, 4.0}};
    actual.actual[3] = bad;
    expect_named(
        [&] { (void)serve_stream(instance, placement, actual, priority, arrivals); },
        "a bad actual duration");
  }
  const Realization actual{{1.0, 2.0, 3.0, 4.0}};
  expect_named(
      [&] {
        (void)serve_stream(instance, placement, actual, priority, arrivals, {},
                           {1.0, std::numeric_limits<double>::infinity()});
      },
      "an infinite speed");
}

// ---------------------------------------------------------------------------
// Direct start: an arrival that wakes a parked machine starts on it at
// admission when nothing else can claim it first. Each case below is one
// where the shortcut must decline or get a detail right; all must match
// the naive oracle bit for bit.

void expect_matches_reference(const Instance& instance, const Placement& placement,
                              const Realization& actual,
                              const std::vector<TaskId>& priority,
                              const std::vector<Time>& arrivals,
                              const std::vector<Time>& initial_ready = {},
                              const std::vector<double>& speeds = {}) {
  const StreamingDispatchResult got = serve_stream(
      instance, placement, actual, priority, arrivals, initial_ready, speeds);
  const StreamingDispatchResult want = check::reference_serve_stream(
      instance, placement, actual, priority, arrivals, initial_ready, speeds);
  const std::size_t n = instance.num_tasks();
  ASSERT_EQ(got.trace.size(), want.trace.size());
  for (TaskId j = 0; j < n; ++j) {
    EXPECT_EQ(got.schedule.assignment.machine_of[j],
              want.schedule.assignment.machine_of[j])
        << "task " << j;
    EXPECT_EQ(got.schedule.start[j], want.schedule.start[j]) << "task " << j;
    EXPECT_EQ(got.schedule.finish[j], want.schedule.finish[j]) << "task " << j;
  }
  for (std::size_t e = 0; e < got.trace.size(); ++e) {
    EXPECT_EQ(got.trace.events[e].when, want.trace.events[e].when) << "event " << e;
    EXPECT_EQ(got.trace.events[e].task, want.trace.events[e].task) << "event " << e;
    EXPECT_EQ(got.trace.events[e].machine, want.trace.events[e].machine)
        << "event " << e;
    EXPECT_EQ(got.trace.events[e].actual, want.trace.events[e].actual) << "event " << e;
  }
  EXPECT_EQ(got.peak_backlog, want.peak_backlog);
}

std::uint64_t direct_starts_of(const Instance& instance, const Placement& placement,
                               const Realization& actual,
                               const std::vector<TaskId>& priority,
                               const std::vector<Time>& arrivals,
                               const std::vector<double>& speeds = {}) {
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    (void)serve_stream(instance, placement, actual, priority, arrivals, {}, speeds);
  }
  return registry.counter("serve.stream.direct_starts").value();
}

TEST(ServeDirectStart, SameInstantArrivalWithBetterRankDeclines) {
  // Both machines park at t = 0. Tasks 0 and 1 arrive together at t = 5
  // and task 1 outranks task 0, so machine 0 -- woken by task 0 -- must
  // run task 1. Starting task 0 at its admission would be wrong: another
  // arrival shares the instant. Task 1 wakes machine 1, which is not the
  // pool's next pop (machine 0 is, at the same instant), so it declines
  // too.
  const Instance instance = Instance::from_estimates({3.0, 5.0}, 2, 2.0);
  const Placement placement = Placement::everywhere(2, 2);
  const std::vector<TaskId> priority = {1, 0};
  const Realization actual{{3.0, 5.0}};
  const std::vector<Time> arrivals = {5.0, 5.0};
  expect_matches_reference(instance, placement, actual, priority, arrivals);
  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);
  EXPECT_EQ(result.schedule.assignment.machine_of[1], 0u);
  EXPECT_EQ(result.schedule.assignment.machine_of[0], 1u);
  EXPECT_EQ(result.peak_backlog, 2u);
  EXPECT_EQ(direct_starts_of(instance, placement, actual, priority, arrivals), 0u);
}

TEST(ServeDirectStart, ArrivalAtALowerIdMachinesFreeInstantDeclines) {
  // Disjoint groups {0} and {1}. Machine 0 runs task 0 over [0, 5) and
  // has task 1 waiting; machine 1 parks at t = 0. Task 2 arrives for
  // machine 1 at exactly t = 5, when machine 0 frees: machine 0 is the
  // pool's next pop, so its start of task 1 comes first in the trace,
  // and the direct start declines.
  const Instance instance = Instance::from_estimates({5.0, 2.0, 3.0}, 2, 2.0);
  const Placement placement = Placement::in_groups({0, 0, 1}, 2, 2);
  const std::vector<TaskId> priority = {0, 1, 2};
  const Realization actual{{5.0, 2.0, 3.0}};
  const std::vector<Time> arrivals = {0.0, 0.0, 5.0};
  expect_matches_reference(instance, placement, actual, priority, arrivals);
  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace.events[1].task, 1u);
  EXPECT_EQ(result.trace.events[2].task, 2u);
  EXPECT_EQ(direct_starts_of(instance, placement, actual, priority, arrivals), 0u);

  // Mirrored, the woken machine has the lower id and goes first: the
  // direct start is taken.
  const Placement mirrored = Placement::in_groups({1, 1, 0}, 2, 2);
  expect_matches_reference(instance, mirrored, actual, priority, arrivals);
  EXPECT_EQ(direct_starts_of(instance, mirrored, actual, priority, arrivals), 1u);
}

TEST(ServeDirectStart, DividesTheDurationByTheMachineSpeed) {
  // Gapped arrivals into two disjoint groups with speeds 0.5 and 3:
  // every task starts directly, and finish = start + actual / speed.
  const Instance instance =
      Instance::from_estimates({2.0, 3.0, 4.0, 5.0, 1.0, 7.0}, 2, 2.0);
  const Placement placement = Placement::in_groups({0, 1, 0, 1, 0, 1}, 2, 2);
  const std::vector<TaskId> priority = {5, 4, 3, 2, 1, 0};
  const Realization actual{{2.5, 3.0, 0.7, 5.0, 1.0, 6.5}};
  const std::vector<Time> arrivals = {0.5, 1.0, 30.0, 31.0, 70.0, 70.5};
  const std::vector<double> speeds = {0.5, 3.0};
  expect_matches_reference(instance, placement, actual, priority, arrivals, {}, speeds);
  const StreamingDispatchResult result = serve_stream(
      instance, placement, actual, priority, arrivals, {}, std::vector<double>(speeds));
  for (TaskId j = 0; j < 6; ++j) {
    const MachineId i = result.schedule.assignment.machine_of[j];
    EXPECT_EQ(result.schedule.start[j], arrivals[j]);
    EXPECT_EQ(result.schedule.finish[j], arrivals[j] + actual[j] / speeds[i]);
  }
  EXPECT_EQ(direct_starts_of(instance, placement, actual, priority, arrivals, speeds),
            6u);
}

TEST(ServeDirectStart, SingleMachineMatchesTheOracle) {
  // m = 1: gapped arrivals start directly; a same-instant pair, an
  // arrival at the machine's free instant and arrivals into a busy
  // machine all take the admission path.
  const Instance instance =
      Instance::from_estimates({2.0, 1.0, 3.0, 1.0, 2.0, 4.0, 1.0}, 1, 2.0);
  const Placement placement = Placement::everywhere(7, 1);
  const std::vector<TaskId> priority = {6, 5, 4, 3, 2, 1, 0};
  const Realization actual{{2.0, 1.0, 3.0, 1.0, 2.0, 4.0, 0.0}};
  const std::vector<Time> arrivals = {1.0, 10.0, 10.0, 14.0, 20.0, 21.0, 30.0};
  expect_matches_reference(instance, placement, actual, priority, arrivals);
  // Tasks 0, 4 and 6 wake the machine with their instant to themselves
  // and start directly. Task 1 wakes it too, but task 2 shares t = 10
  // and outranks it.
  EXPECT_EQ(direct_starts_of(instance, placement, actual, priority, arrivals), 3u);
}

TEST(ServeDirectStart, RandomLightLoadsMatchTheOracle) {
  // Light Poisson loads on group, singleton and full placements with
  // speeds and initial ready times: most tasks start directly.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const MachineId m = static_cast<MachineId>(1 + seed % 5);
    const MachineId groups = seed % 3 == 0   ? m
                             : seed % 3 == 1 ? MachineId{1}
                                             : static_cast<MachineId>(1 + (m - 1) / 2);
    if (m % groups != 0) continue;
    const ServeFixture fx = poisson_fixture(120, m, groups, 0.08 * m, seed);
    std::vector<Time> initial_ready;
    std::vector<double> speeds;
    if (seed % 2 == 0) {
      for (MachineId i = 0; i < m; ++i) {
        initial_ready.push_back(static_cast<Time>((i * 3 + seed) % 4));
        speeds.push_back(0.5 + 0.5 * static_cast<double>((i + seed) % 3));
      }
    }
    SCOPED_TRACE(seed);
    expect_matches_reference(fx.instance, fx.placement, fx.actual, fx.priority,
                             fx.arrivals, initial_ready, speeds);
  }
}

TEST(ServeDirectStart, CountedAtModerateLoadWithinWakes) {
  // Poisson at rho = 0.7 on a group placement: direct starts happen, and
  // each one is a wake.
  const MachineId m = 8;
  ServeFixture fx = poisson_fixture(4000, m, 4, 1.0, 31);
  double mean_actual = 0.0;
  for (const Time a : fx.actual.actual) mean_actual += a;
  mean_actual /= static_cast<double>(fx.actual.size());
  ArrivalParams params;
  params.model = ArrivalModel::kPoisson;
  params.rate = 0.7 * static_cast<double>(m) / mean_actual;
  params.seed = 33;
  fx.arrivals = generate_arrivals(params, fx.instance.num_tasks());
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    (void)serve_stream(fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);
  }
  const std::uint64_t direct = registry.counter("serve.stream.direct_starts").value();
  EXPECT_GT(direct, 0u);
  EXPECT_LE(direct, registry.counter("serve.stream.wakes").value());
}

TEST(ServeStream, LptRankedDeepBacklogMatchesOracle) {
  // An LPT priority ranks a queue's slots at random with respect to
  // arrival order, so admission scatters bits over the whole bitmap and
  // every pop walks up the levels. Here one queue holds more than 4096
  // slots (three bitmap levels, which the fuzzer's --max-n=200 never
  // reaches) and MMPP bursts push the backlog past 1500 tasks; full
  // replication (one queue) and LS-Group (two) must match the naive
  // oracle bit for bit, streamed and drained. Task 0's estimate exceeds
  // all the others together, so LS-Group's list scheduling puts it alone
  // in the first group and every other task in the second: the deep
  // queue without the O(n^2 m) oracle's cost for a larger n.
  const std::size_t n = 4401;
  const MachineId m = 4;
  WorkloadParams wp;
  wp.num_tasks = n - 1;
  wp.num_machines = m;
  wp.alpha = 1.5;
  wp.seed = 61;
  std::vector<Time> estimates = uniform_workload(wp, 1.0, 10.0).estimates();
  Time rest = 0.0;
  for (const Time e : estimates) rest += e;
  estimates.insert(estimates.begin(), 2.0 * rest);
  const Instance instance = Instance::from_estimates(estimates, m, wp.alpha);
  const Realization actual = realize(instance, NoiseModel::kUniform, 62);
  const std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  double mean_actual = 0.0;
  for (TaskId j = 1; j < n; ++j) mean_actual += actual.actual[j];
  mean_actual /= static_cast<double>(n - 1);
  ArrivalParams params;
  params.model = ArrivalModel::kBurst;
  params.rate = 0.95 * 2.0 / mean_actual;
  params.burst_boost = 3.0;
  params.burst_on = 3000.0;
  params.burst_off = 6000.0;
  params.seed = 63;
  const std::vector<Time> arrivals = generate_arrivals(params, n);

  for (const Placement& placement :
       {make_lpt_no_restriction().place(instance), make_ls_group(2).place(instance)}) {
    SCOPED_TRACE(placement.num_distinct_sets());
    std::uint32_t largest = 0;
    for (std::uint32_t q = 0; q < placement.num_distinct_sets(); ++q) {
      largest = std::max(largest, placement.set_population(q));
    }
    ASSERT_GT(largest, 4096u);

    const StreamingDispatchResult got =
        serve_stream(instance, placement, actual, priority, arrivals);
    const StreamingDispatchResult want =
        check::reference_serve_stream(instance, placement, actual, priority, arrivals);
    EXPECT_EQ(got.peak_backlog, want.peak_backlog);
    EXPECT_GE(got.peak_backlog, 1500u);
    ASSERT_EQ(got.trace.size(), want.trace.size());
    // One failure line at the first divergence, not one per later task.
    for (TaskId j = 0; j < n; ++j) {
      ASSERT_TRUE(got.schedule.assignment.machine_of[j] ==
                      want.schedule.assignment.machine_of[j] &&
                  got.schedule.start[j] == want.schedule.start[j] &&
                  got.schedule.finish[j] == want.schedule.finish[j])
          << "schedule diverges at task " << j;
    }
    for (std::size_t e = 0; e < got.trace.size(); ++e) {
      const DispatchEvent& a = got.trace.events[e];
      const DispatchEvent& b = want.trace.events[e];
      ASSERT_TRUE(a.when == b.when && a.task == b.task && a.machine == b.machine &&
                  a.actual == b.actual)
          << "trace diverges at event " << e;
    }

    const std::vector<Time> zeros(n, Time{0});
    expect_bit_identical(serve_stream(instance, placement, actual, priority, zeros),
                         check::reference_dispatch_online(instance, placement, actual,
                                                          priority),
                         n);
  }
}

// ---------------------------------------------------------------------------
// Response-time stats and the service layer

TEST(ServeStats, DecomposesResponseIntoWaitAndService) {
  const ServeFixture fx = poisson_fixture(600, 8, 4, 30.0, 23);
  const StreamingDispatchResult result = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);
  const ServeStats stats = compute_serve_stats(result.schedule, fx.arrivals);

  EXPECT_EQ(stats.response.count, fx.instance.num_tasks());
  // response = queue wait + service, so the means must add up (each
  // histogram carries <= 0.8% quantile error, but means are exact sums).
  EXPECT_NEAR(stats.response.mean,
              stats.queue_wait.mean + stats.service.mean,
              1e-6 * stats.response.mean);
  EXPECT_GE(stats.queue_wait.min, 0.0);
  EXPECT_LE(stats.response.p50, stats.response.p99);
  EXPECT_GT(stats.service.mean, 0.0);
  EXPECT_DOUBLE_EQ(stats.first_arrival, fx.arrivals[0]);
  const Time max_finish =
      *std::max_element(result.schedule.finish.begin(),
                        result.schedule.finish.end());
  EXPECT_DOUBLE_EQ(stats.last_finish, max_finish);
}

TEST(ServeService, RunServeReportsThroughputAndHorizon) {
  const ServeFixture fx = poisson_fixture(400, 4, 2, 50.0, 31);
  const ServeReport report = run_serve(fx.instance, fx.placement, fx.actual,
                                       fx.priority, fx.arrivals);
  EXPECT_EQ(report.tasks, fx.instance.num_tasks());
  EXPECT_EQ(report.machines, fx.instance.num_machines());
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.dispatched_per_sec, 0.0);
  EXPECT_GT(report.horizon, fx.arrivals.back());
  EXPECT_GE(report.peak_backlog, 1u);
}

TEST(ServeService, CycleInstanceTilesTaskMix) {
  const Instance base = Instance::from_estimates({1.0, 2.0, 3.0}, 4, 1.8);
  const Instance cycled = cycle_instance(base, 8);
  ASSERT_EQ(cycled.num_tasks(), 8u);
  EXPECT_EQ(cycled.num_machines(), base.num_machines());
  EXPECT_DOUBLE_EQ(cycled.alpha(), base.alpha());
  for (TaskId j = 0; j < 8; ++j) {
    EXPECT_DOUBLE_EQ(cycled.estimate(j), base.estimate(j % 3));
  }
  EXPECT_THROW((void)cycle_instance(Instance{}, 4),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Degenerate SLO geometry: a window count that would overflow the size_t
// cast or exhaust memory is rejected before anything is allocated.

TEST(SloGeometry, RejectsWindowCountPastTheCap) {
  const ServeFixture fx = poisson_fixture(200, 4, 2, 20.0, 41);
  const StreamingDispatchResult result = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);
  const double horizon = result.schedule.makespan();
  ASSERT_GT(horizon, 1.0);
  SloSpec spec = parse_slo_spec("p99=30");
  for (const double width : {1e-300, 1e-6, horizon / (2.0 * kMaxSloWindows),
                             std::numeric_limits<double>::denorm_min(), 0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN()}) {
    spec.window_seconds = width;
    try {
      (void)evaluate_slo(result.schedule, fx.arrivals, spec);
      ADD_FAILURE() << "window=" << width << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("window="), std::string::npos) << e.what();
    }
  }
  // Just under the cap is still evaluated, one window per interval.
  spec.window_seconds = horizon / 100'000.0;
  const SloReport report = evaluate_slo(result.schedule, fx.arrivals, spec);
  EXPECT_GE(report.windows.size(), 100'000u);
  EXPECT_LE(report.windows.size(), 100'002u);
  std::uint64_t counted = 0;
  for (const SloWindow& w : report.windows) counted += w.queue_wait.count;
  EXPECT_EQ(counted, fx.instance.num_tasks());
}

TEST(SloGeometry, WindowedHistogramClampsHugeTimes) {
  obs::WindowedHistogram window(1e-300, 2);
  window.observe(1.0, 3.0);  // 1e300 intervals: past int64, clamped
  window.observe(std::numeric_limits<double>::infinity(), 5.0);
  window.observe(std::numeric_limits<double>::quiet_NaN(), 7.0);  // interval 0: late
  const obs::LocalHistogram::Summary s = window.window_summary(1e308);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_EQ(window.late_dropped(), 1u);
  EXPECT_EQ(window.interval_summary(1.0).count, 2u);
}

// ---------------------------------------------------------------------------
// evaluate_slo at serve scale against the two-sort oracle: LPT with full
// replication under MMPP bursts past capacity, so queues run thousands
// of tasks deep and waits span many windows, then the same run with its
// task ids shuffled (unsorted arrivals). The report depends only on the
// (arrival, start, finish) triples, so the relabelled run must give the
// same report bit for bit as well.

TEST(SloServeScale, DeepBacklogMatchesTheTwoSortOracle) {
  constexpr std::size_t n = 20'000;
  WorkloadParams wp;
  wp.num_tasks = n;
  wp.num_machines = 32;
  wp.alpha = 1.5;
  wp.seed = 41;
  const Instance instance = uniform_workload(wp, 1.0, 10.0);
  const Realization actual = realize(instance, NoiseModel::kUniform, 42);
  ArrivalParams params;
  params.model = ArrivalModel::kBurst;
  params.burst_boost = 2.5;
  params.burst_on = 200.0;
  params.burst_off = 300.0;
  params.rate = 0.95 * 32.0 / (total_actual(actual) / static_cast<double>(n));
  params.seed = 43;
  const std::vector<Time> arrivals = generate_arrivals(params, n);
  const TwoPhaseStrategy strategy = strategy_from_spec("lpt-no-restriction");
  const StreamingDispatchResult run =
      serve_stream(instance, strategy.place(instance), actual,
                   make_priority(instance, strategy.rule()), arrivals);
  ASSERT_GT(run.peak_backlog, 1000u);

  std::vector<std::size_t> perm(n);
  for (std::size_t j = 0; j < n; ++j) perm[j] = j;
  std::mt19937_64 rng(44);
  std::shuffle(perm.begin(), perm.end(), rng);
  Schedule relabelled = run.schedule;
  std::vector<Time> relabelled_arrivals(n);
  for (std::size_t j = 0; j < n; ++j) {
    relabelled_arrivals[j] = arrivals[perm[j]];
    relabelled.start[j] = run.schedule.start[perm[j]];
    relabelled.finish[j] = run.schedule.finish[perm[j]];
    relabelled.assignment.machine_of[j] = run.schedule.assignment.machine_of[perm[j]];
  }

  for (const char* text : {"p99=60,backlog=500,window=20,sustain=3",
                           "p50=20,p90=45,window=7.3,sustain=1",
                           "p99=80,backlog=2000,window=250,sustain=6"}) {
    const SloSpec spec = parse_slo_spec(text);
    const SloReport got = evaluate_slo(run.schedule, arrivals, spec);
    EXPECT_EQ(check::diff_slo_reports(
                  got, check::reference_evaluate_slo(run.schedule, arrivals, spec)),
              "")
        << text;
    const SloReport shuffled = evaluate_slo(relabelled, relabelled_arrivals, spec);
    EXPECT_EQ(check::diff_slo_reports(
                  shuffled,
                  check::reference_evaluate_slo(relabelled, relabelled_arrivals, spec)),
              "")
        << text << " (shuffled ids)";
    EXPECT_EQ(check::diff_slo_reports(shuffled, got), "") << text << " (relabelled)";
  }
}

// ---------------------------------------------------------------------------
// Golden pin of the serve reports: every ServeStats and SloWindow field,
// hashed by bit pattern, so a change that moves any report bit (an ulp
// of a mean, one quantile bucket, one verdict) fails here and has to be
// made on purpose. Last re-pinned when histogram moments became exact
// sums rounded once: only means and stddevs moved, to their correctly
// rounded values.

struct BitHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const obs::Histogram::Summary& s) {
    add(static_cast<std::uint64_t>(s.count));
    for (const double x : {s.mean, s.stddev, s.min, s.max, s.sum, s.p50, s.p90, s.p99}) {
      add(x);
    }
  }
};

struct GoldenCase {
  const char* strategy;
  ArrivalParams arrivals;
  double rho;
  std::size_t n;
  std::uint64_t seed;
  const char* slo;
};

/// Place, prioritize and serve one stream the way bench/e2e's serve
/// workloads do (m = 64, alpha = 1.5, estimates uniform on [1, 10]), then
/// returns {ServeStats hash, SloReport hash}.
std::pair<std::uint64_t, std::uint64_t> golden_report_hashes(const GoldenCase& c) {
  WorkloadParams wp;
  wp.num_tasks = c.n;
  wp.num_machines = 64;
  wp.alpha = 1.5;
  wp.seed = c.seed;
  const Instance instance = uniform_workload(wp, 1.0, 10.0);
  const Realization actual = realize(instance, NoiseModel::kUniform, c.seed + 1);
  ArrivalParams params = c.arrivals;
  params.rate = c.rho * 64.0 / (total_actual(actual) / static_cast<double>(c.n));
  params.seed = c.seed + 2;
  const std::vector<Time> arrivals = generate_arrivals(params, c.n);
  const TwoPhaseStrategy strategy = strategy_from_spec(c.strategy);
  const Placement placement = strategy.place(instance);
  const std::vector<TaskId> priority = make_priority(instance, strategy.rule());
  const StreamingDispatchResult result =
      serve_stream(instance, placement, actual, priority, arrivals);

  const ServeStats stats = compute_serve_stats(result.schedule, arrivals);
  BitHash stats_hash;
  stats_hash.add(stats.response);
  stats_hash.add(stats.queue_wait);
  stats_hash.add(stats.service);
  stats_hash.add(stats.first_arrival);
  stats_hash.add(stats.last_finish);

  const SloReport report = evaluate_slo(result.schedule, arrivals, parse_slo_spec(c.slo));
  BitHash slo_hash;
  for (const SloWindow& w : report.windows) {
    slo_hash.add(w.t0);
    slo_hash.add(w.t1);
    slo_hash.add(w.response);
    slo_hash.add(w.queue_wait);
    slo_hash.add(w.backlog_watermark);
    slo_hash.add(static_cast<std::uint64_t>(w.violated));
  }
  slo_hash.add(static_cast<std::uint64_t>(report.violating_windows));
  slo_hash.add(static_cast<std::uint64_t>(report.max_consecutive_violations));
  slo_hash.add(report.burn_rate);
  slo_hash.add(static_cast<std::uint64_t>(report.sustained_violation));
  return {stats_hash.h, slo_hash.h};
}

TEST(ServeGolden, ReportsBitIdenticalToPinnedHashes) {
  ArrivalParams poisson;
  poisson.model = ArrivalModel::kPoisson;
  ArrivalParams mmpp;
  mmpp.model = ArrivalModel::kBurst;
  mmpp.burst_boost = 2.5;
  mmpp.burst_on = 100.0;
  mmpp.burst_off = 400.0;
  const struct {
    GoldenCase c;
    std::uint64_t stats;
    std::uint64_t slo;
  } cases[] = {
      // 110 windows, 25 violating, longest streak 3.
      {{"ls-group:8", poisson, 0.7, 4000, 11, "p99=14,backlog=40,window=5,sustain=3"},
       0xb048cd54deb91d46ULL, 0x49345b6c4e75e575ULL},
      // 62 windows, one 25-window streak through the bursts.
      {{"lpt-no-restriction", mmpp, 0.6, 4000, 12, "p90=60,backlog=150,window=10,sustain=4"},
       0xa7762c683956faacULL, 0xc08603e5875ff7f7ULL},
      // 1075 windows, 262 violating, longest streak 9.
      {{"ls-group:4", poisson, 0.9, 3000, 13, "p50=7,p99=20,window=0.3,sustain=1"},
       0x8c2596969db1cefeULL, 0xf8247c2909affc6fULL},
  };
  for (const auto& [c, stats, slo] : cases) {
    const auto [got_stats, got_slo] = golden_report_hashes(c);
    EXPECT_EQ(got_stats, stats) << c.strategy << " stats: 0x" << std::hex << got_stats;
    EXPECT_EQ(got_slo, slo) << c.strategy << " slo: 0x" << std::hex << got_slo;
  }
}

// ---------------------------------------------------------------------------
// Flight-recorder integration (obs/timeline.hpp)

TEST(ServeTimeline, StreamEmitsFullLifecycleAndStaysBitIdentical) {
  const ServeFixture fx = poisson_fixture(300, 6, 3, 40.0, 19);
  const std::size_t n = fx.instance.num_tasks();

  const StreamingDispatchResult plain = serve_stream(
      fx.instance, fx.placement, fx.actual, fx.priority, fx.arrivals);

  obs::TimelineRecorder recorder(4 * n);
  StreamingDispatchResult observed;
  {
    obs::TimelineScope scope(&recorder);
    observed = serve_stream(fx.instance, fx.placement, fx.actual, fx.priority,
                            fx.arrivals);
  }
  // Recording may not perturb dispatch (ARCHITECTURE.md §5).
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(plain.schedule.assignment.machine_of[j],
              observed.schedule.assignment.machine_of[j]);
    EXPECT_EQ(plain.schedule.start[j], observed.schedule.start[j]);
    EXPECT_EQ(plain.schedule.finish[j], observed.schedule.finish[j]);
  }

  // Exactly arrive + start + finish per task, nothing dropped.
  ASSERT_EQ(recorder.size(), 3 * n);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::vector<int> arrives(n, 0);
  std::vector<int> starts(n, 0);
  std::vector<int> finishes(n, 0);
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const obs::TimelineEvent e = recorder.event(i);
    ASSERT_LT(e.task, n);
    switch (e.kind) {
      case obs::TimelineEventKind::kArrive:
        EXPECT_DOUBLE_EQ(e.when, fx.arrivals[e.task]);
        EXPECT_EQ(e.machine, obs::kTimelineNone);
        ++arrives[e.task];
        break;
      case obs::TimelineEventKind::kStart:
        EXPECT_DOUBLE_EQ(e.when, observed.schedule.start[e.task]);
        EXPECT_EQ(e.machine, observed.schedule.assignment.machine_of[e.task]);
        ++starts[e.task];
        break;
      case obs::TimelineEventKind::kFinish:
        EXPECT_DOUBLE_EQ(e.when, observed.schedule.finish[e.task]);
        EXPECT_EQ(e.machine, observed.schedule.assignment.machine_of[e.task]);
        ++finishes[e.task];
        break;
      default:
        FAIL() << "unexpected event kind " << obs::to_string(e.kind);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(arrives[j], 1) << "task " << j;
    EXPECT_EQ(starts[j], 1) << "task " << j;
    EXPECT_EQ(finishes[j], 1) << "task " << j;
  }
}

}  // namespace
}  // namespace rdp
