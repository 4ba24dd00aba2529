// Simulator-core throughput: the hot-path rewrite (struct-of-arrays
// workspace, calendar event queue, arena allocation) vs the retained
// pre-rewrite core (check/reference_dispatcher.*). Both cores run in the
// same binary on the same instance, so the speedup is apples-to-apples
// and the outputs double as a bit-exactness check.
//
// Two measurements:
//
//   dispatch -- dispatch_online vs reference_dispatch_online on the three
//     canonical placements of one big workload: full replication
//     (Placement::everywhere, the paper's replication upper bound and the
//     headline instance), group replication, and singleton pinning. Each
//     task is one scheduling event, so events/sec = n / seconds. The
//     schedules must match bit-for-bit on every placement.
//
//   queue -- the classic hold model on the event queues alone: prime with
//     q events, then ops times (pop the minimum, push it back at a later
//     time). SimEventQueue, the calendar queue the failure and speculative
//     loops use, vs the std::priority_queue binary heap (SimEventBefore
//     inverted) they used before it; same deterministic SimEvent stream,
//     popped-event checksums compared.
//
// The min over --reps repetitions is reported (steady-state figure; the
// first rep pays page faults and arena growth).
//
// Usage: ext_sim_throughput [--n=1000000] [--m=64] [--groups=8]
//        [--reps=3] [--hold-size=4096] [--hold-ops=2000000] [--seed=1]
//        [--out=BENCH_sim_throughput.json]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "binary_heap_queue.hpp"
#include "check/reference_dispatcher.hpp"
#include "cli/args.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "perf/bench_record.hpp"
#include "perturb/stochastic.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/workspace.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64: cheap deterministic stream for the hold-model increments.
std::uint64_t mix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Runs the hold model with finish events that carry their task id and a
/// fresh seq per push, as the dispatchers stamp them. Returns an
/// order-sensitive checksum of the popped (time, task) stream so both
/// queues can be diffed.
template <typename Queue>
std::uint64_t run_hold(Queue& queue, std::size_t size, std::size_t ops,
                       std::uint64_t seed) {
  std::uint64_t rng = seed;
  std::uint64_t seq = 0;
  const auto push = [&](Time when, TaskId task) {
    queue.push(SimEvent{when, kSimEventFinish, kNoMachine, task, 0, seq++});
  };
  for (std::size_t i = 0; i < size; ++i) {
    const double t =
        static_cast<double>(mix64(rng) >> 11) * 0x1.0p-53 * 1000.0;
    push(t, static_cast<TaskId>(i));
  }
  std::uint64_t checksum = 14695981039346656037ull;
  for (std::size_t i = 0; i < ops; ++i) {
    const SimEvent event = pop_next(queue);
    checksum = (checksum ^ event.task) * 1099511628211ull;
    checksum = (checksum ^ std::bit_cast<std::uint64_t>(event.when)) *
               1099511628211ull;
    const double step =
        static_cast<double>(mix64(rng) >> 11) * 0x1.0p-53 * 10.0;
    push(event.when + step, event.task);
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get("n", std::int64_t{1000000}));
  const auto m = static_cast<MachineId>(args.get("m", std::int64_t{64}));
  const auto groups =
      static_cast<MachineId>(args.get("groups", std::int64_t{8}));
  const auto reps = static_cast<std::size_t>(args.get("reps", std::int64_t{3}));
  const auto hold_size =
      static_cast<std::size_t>(args.get("hold-size", std::int64_t{4096}));
  const auto hold_ops =
      static_cast<std::size_t>(args.get("hold-ops", std::int64_t{2000000}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const std::string out_path = args.get("out", std::string{});
  if (reps == 0 || groups == 0 || m % groups != 0) {
    std::cerr << "ext_sim_throughput: need reps >= 1 and groups | m\n";
    return EXIT_FAILURE;
  }

  // One workload, the paper's three canonical placements. Full
  // replication is the headline instance: it exposes everything the
  // rewrite removed from the pre-rewrite core (per-dispatch replica-set
  // hashing, an n-entry comparison sort of the queue, AoS state).
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = seed;
  const Instance instance = uniform_workload(params, 1.0, 10.0);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % groups;
  std::vector<MachineId> pin_of(n);
  for (TaskId j = 0; j < n; ++j) pin_of[j] = static_cast<MachineId>(j % m);
  const std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  const Realization actual = realize(instance, NoiseModel::kUniform, seed + 1);

  struct DispatchCase {
    const char* name;
    Placement placement;
    double ref_seconds = std::numeric_limits<double>::infinity();
    double soa_seconds = std::numeric_limits<double>::infinity();
  };
  DispatchCase cases[] = {
      {"full replication", Placement::everywhere(n, m)},
      {"group replication", Placement::in_groups(group_of, groups, m)},
      {"singleton", Placement::singleton(pin_of, m)},
  };

  // --- dispatch: reference (pre-rewrite) vs SoA core --------------------
  std::size_t mismatches = 0;
  double max_abs_diff = 0;
  DispatchResult reference;
  DispatchResult rewritten;
  for (DispatchCase& c : cases) {
    for (std::size_t r = 0; r < reps; ++r) {
      const auto ref_start = Clock::now();
      reference = check::reference_dispatch_online(instance, c.placement,
                                                   actual, priority);
      c.ref_seconds = std::min(c.ref_seconds, seconds_since(ref_start));

      const auto soa_start = Clock::now();
      dispatch_online(instance, c.placement, actual, priority, {}, {},
                      thread_workspace(), rewritten);
      c.soa_seconds = std::min(c.soa_seconds, seconds_since(soa_start));
    }
    // Bit-exactness: the bench refuses to report a speedup for a core
    // that schedules differently.
    for (TaskId j = 0; j < n; ++j) {
      if (reference.schedule.assignment.machine_of[j] !=
          rewritten.schedule.assignment.machine_of[j]) {
        ++mismatches;
      }
      max_abs_diff = std::max(
          max_abs_diff, std::fabs(reference.schedule.finish[j] -
                                  rewritten.schedule.finish[j]));
      max_abs_diff = std::max(
          max_abs_diff,
          std::fabs(reference.schedule.start[j] - rewritten.schedule.start[j]));
    }
    if (mismatches != 0 || max_abs_diff != 0) {
      std::cerr << "ext_sim_throughput: PARITY FAILURE (" << c.name << ") -- "
                << mismatches << " assignment mismatches, max |dt| = "
                << max_abs_diff << "\n";
      return EXIT_FAILURE;
    }
  }

  // --- queue: hold model, binary heap vs calendar queue -----------------
  double legacy_seconds = std::numeric_limits<double>::infinity();
  double calendar_seconds = std::numeric_limits<double>::infinity();
  std::uint64_t legacy_sum = 0;
  std::uint64_t calendar_sum = 0;
  for (std::size_t r = 0; r < reps; ++r) {
    BinaryHeapQueue legacy;
    const auto legacy_start = Clock::now();
    legacy_sum = run_hold(legacy, hold_size, hold_ops, seed);
    legacy_seconds = std::min(legacy_seconds, seconds_since(legacy_start));

    SimEventQueue calendar;
    const auto calendar_start = Clock::now();
    calendar_sum = run_hold(calendar, hold_size, hold_ops, seed);
    calendar_seconds = std::min(calendar_seconds, seconds_since(calendar_start));
  }
  if (legacy_sum != calendar_sum) {
    std::cerr << "ext_sim_throughput: QUEUE DIVERGENCE -- hold-model "
                 "checksums differ (legacy "
              << legacy_sum << " vs calendar " << calendar_sum << ")\n";
    return EXIT_FAILURE;
  }

  const double nd = static_cast<double>(n);
  const DispatchCase& headline = cases[0];  // full replication
  const double ref_eps = nd / headline.ref_seconds;
  const double soa_eps = nd / headline.soa_seconds;
  const double dispatch_speedup = headline.ref_seconds / headline.soa_seconds;
  const double od = static_cast<double>(hold_ops);
  const double queue_speedup = legacy_seconds / calendar_seconds;

  TextTable table({"core", "seconds", "events/sec", "speedup"});
  for (const DispatchCase& c : cases) {
    table.add_row({std::string(c.name) + " reference", fmt(c.ref_seconds, 3),
                   fmt(nd / c.ref_seconds, 0), "1.00"});
    table.add_row({std::string(c.name) + " SoA", fmt(c.soa_seconds, 3),
                   fmt(nd / c.soa_seconds, 0),
                   fmt(c.ref_seconds / c.soa_seconds, 2)});
  }
  table.add_row({"queue legacy heap", fmt(legacy_seconds, 3),
                 fmt(od / legacy_seconds, 0), "1.00"});
  table.add_row({"queue calendar", fmt(calendar_seconds, 3),
                 fmt(od / calendar_seconds, 0), fmt(queue_speedup, 2)});
  std::cout << "ext_sim_throughput: n=" << n << " m=" << m
            << " groups=" << groups << " reps=" << reps
            << " hold=" << hold_size << "x" << hold_ops
            << " (schedules bit-exact)\n"
            << table.render();

  if (!out_path.empty()) {
    perf::BenchRecord record;
    record.name = "sim_throughput";
    record.set_params(JsonObject{{"tasks", n}, {"machines", m}, {"groups", groups},
                                 {"reps", reps}, {"hold_size", hold_size},
                                 {"hold_ops", hold_ops}});
    using perf::Direction, perf::Noise;
    const auto timing = [&](const char* name, double value, Direction direction) {
      record.add(name, value, direction, Noise::kTiming);
    };
    // Headline metrics: the full-replication instance.
    timing("reference_dispatch_seconds", headline.ref_seconds, Direction::kLower);
    timing("soa_dispatch_seconds", headline.soa_seconds, Direction::kLower);
    timing("reference_events_per_sec", ref_eps, Direction::kHigher);
    timing("soa_events_per_sec", soa_eps, Direction::kHigher);
    timing("dispatch_speedup", dispatch_speedup, Direction::kHigher);
    // The other two canonical placements, same workload.
    timing("group_reference_seconds", cases[1].ref_seconds, Direction::kLower);
    timing("group_soa_seconds", cases[1].soa_seconds, Direction::kLower);
    timing("group_dispatch_speedup", cases[1].ref_seconds / cases[1].soa_seconds,
           Direction::kHigher);
    timing("singleton_reference_seconds", cases[2].ref_seconds, Direction::kLower);
    timing("singleton_soa_seconds", cases[2].soa_seconds, Direction::kLower);
    timing("singleton_dispatch_speedup",
           cases[2].ref_seconds / cases[2].soa_seconds, Direction::kHigher);
    timing("queue_legacy_seconds", legacy_seconds, Direction::kLower);
    timing("queue_calendar_seconds", calendar_seconds, Direction::kLower);
    timing("queue_speedup", queue_speedup, Direction::kHigher);
    // The bench exits non-zero on any divergence, so these are always zero
    // in a recorded file; gating them "exact" means a future run that
    // somehow emits a nonzero value trips the gate even if someone relaxes
    // the binary's hard failure.
    record.add("parity_mismatches", static_cast<double>(mismatches),
               Direction::kLower, Noise::kExact);
    record.add("parity_max_abs_diff", max_abs_diff, Direction::kLower, Noise::kExact);
    record.save(out_path);
  }
  return EXIT_SUCCESS;
}
