// Flight-recorder overhead on the streaming hot path: serve_stream under
// a Poisson stream at ~0.7 of the system's service capacity (the default
// m=64 machines against mean-5.5s tasks sustain ~11.6 tasks/s; rate=8
// keeps the dispatcher in its streaming regime, admissions interleaved
// with dispatch). A saturating rate would instead degenerate serve_stream
// into an offline replay loop whose per-task cost is a few dozen ns, at
// which point the ratio measures nothing but the memory-bandwidth floor
// of the bulk column fill (~9% on a 13 GB/s box; try --rate=200). The
// recorder off vs on, min over --reps repetitions:
//
//   off -- no recorder installed; every emission site is a null check.
//
//   on -- a TimelineRecorder sized to hold the whole run (3 events per
//     task). overhead_ratio = off_tasks_per_sec / on_tasks_per_sec;
//     the acceptance ceiling is 1.05 (<= 5% throughput cost), enforced
//     here as a hard failure (--max-overhead, default 1.05; the smoke
//     invocation relaxes it -- Debug builds and loaded CI runners are
//     not the measurement) and pinned in the committed baseline
//     (bench/baselines/obs_overhead.json) via the perf gate.
//
//   drop -- a recorder with --drop-capacity slots (default: half the
//     events), so the run saturates it and exercises the counted-drop
//     path; the recorded/dropped counts are deterministic and gated
//     "exact".
//
// Usage: ext_obs_overhead [--n=500000] [--m=64] [--groups=8] [--rate=8]
//        [--reps=5] [--seed=1] [--max-overhead=1.05] [--drop-capacity=0]
//        [--out=BENCH_obs_overhead.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "cli/args.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "obs/hooks.hpp"
#include "obs/timeline.hpp"
#include "perf/bench_record.hpp"
#include "perturb/stochastic.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/workspace.hpp"
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
  const auto n = static_cast<std::size_t>(args.get("n", std::int64_t{500000}));
  const auto m = static_cast<MachineId>(args.get("m", std::int64_t{64}));
  const auto groups = static_cast<MachineId>(args.get("groups", std::int64_t{8}));
  const double rate = args.get("rate", 8.0);
  const auto reps = static_cast<std::size_t>(args.get("reps", std::int64_t{5}));
  const auto seed = static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const double max_overhead = args.get("max-overhead", 1.05);
  auto drop_capacity = static_cast<std::size_t>(
      args.get("drop-capacity", std::int64_t{0}));
  const std::string out_path = args.get("out", std::string{});
  if (reps == 0 || groups == 0 || m % groups != 0 || !(rate > 0.0) ||
      !(max_overhead > 0.0)) {
    std::cerr << "ext_obs_overhead: need reps >= 1, groups | m, rate > 0, "
                 "max-overhead > 0\n";
    return EXIT_FAILURE;
  }
  const std::size_t full_events = 3 * n;  // arrive + start + finish
  if (drop_capacity == 0) drop_capacity = full_events / 2;

  // Same workload and placement as ext_serve_throughput, but with the
  // arrival rate held below capacity (see the header comment) so the
  // overhead ratio is measured in the dispatcher's streaming regime.
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = seed;
  const Instance instance = uniform_workload(params, 1.0, 10.0);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % groups;
  const Placement placement = Placement::in_groups(group_of, groups, m);
  const std::vector<TaskId> priority =
      make_priority(instance, PriorityRule::kLongestEstimateFirst);
  const Realization actual = realize(instance, NoiseModel::kUniform, seed + 1);
  const std::vector<Time> arrivals = [&] {
    ArrivalParams arrival_params;
    arrival_params.model = ArrivalModel::kPoisson;
    arrival_params.rate = rate;
    arrival_params.seed = seed + 2;
    return generate_arrivals(arrival_params, n);
  }();

  double off_seconds = std::numeric_limits<double>::infinity();
  double on_seconds = std::numeric_limits<double>::infinity();
  StreamingDispatchResult off_result;
  StreamingDispatchResult on_result;
  SimWorkspace& ws = thread_workspace();
  obs::TimelineRecorder recorder(full_events);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto off_start = Clock::now();
    serve_stream(instance, placement, actual, priority, arrivals, {}, {}, ws,
                 off_result);
    off_seconds = std::min(off_seconds, seconds_since(off_start));

    recorder.clear();
    const obs::TimelineScope scope(&recorder);
    const auto on_start = Clock::now();
    serve_stream(instance, placement, actual, priority, arrivals, {}, {}, ws,
                 on_result);
    on_seconds = std::min(on_seconds, seconds_since(on_start));
  }
  const std::uint64_t events_recorded = recorder.size();
  const std::uint64_t events_dropped = recorder.dropped();

  // The recorded streams must agree with the uninstrumented run -- the
  // recorder may not perturb dispatch -- and a full-size recorder must
  // capture every event.
  std::size_t parity = 0;
  for (TaskId j = 0; j < n; ++j) {
    if (off_result.schedule.assignment.machine_of[j] !=
            on_result.schedule.assignment.machine_of[j] ||
        off_result.schedule.start[j] != on_result.schedule.start[j] ||
        off_result.schedule.finish[j] != on_result.schedule.finish[j]) {
      ++parity;
    }
  }
  if (parity != 0 || events_recorded != full_events || events_dropped != 0) {
    std::cerr << "ext_obs_overhead: RECORDER PARITY FAILURE -- " << parity
              << " schedule mismatches, " << events_recorded << "/"
              << full_events << " events, " << events_dropped << " dropped\n";
    return EXIT_FAILURE;
  }

  // Drop path: a deliberately undersized recorder; counts must be exact.
  obs::TimelineRecorder small(drop_capacity);
  {
    const obs::TimelineScope scope(&small);
    serve_stream(instance, placement, actual, priority, arrivals, {}, {}, ws,
                 on_result);
  }
  const std::uint64_t drop_recorded = small.size();
  const std::uint64_t drop_dropped = small.dropped();
  if (drop_recorded + drop_dropped != full_events) {
    std::cerr << "ext_obs_overhead: DROP ACCOUNTING FAILURE -- "
              << drop_recorded << " + " << drop_dropped
              << " != " << full_events << "\n";
    return EXIT_FAILURE;
  }

  const double nd = static_cast<double>(n);
  const double off_tps = nd / off_seconds;
  const double on_tps = nd / on_seconds;
  const double overhead = off_tps / on_tps;

  TextTable table({"recorder", "seconds", "tasks/sec", "vs off"});
  table.add_row({"off", fmt(off_seconds, 3), fmt(off_tps, 0), "1.00"});
  table.add_row({"on", fmt(on_seconds, 3), fmt(on_tps, 0), fmt(overhead, 3)});
  std::cout << "ext_obs_overhead: n=" << n << " m=" << m << " groups=" << groups
            << " rate=" << rate << " reps=" << reps << "\n"
            << table.render() << "recorded " << events_recorded
            << " events; drop run " << drop_recorded << " recorded + "
            << drop_dropped << " dropped at capacity " << drop_capacity << "\n"
            << "overhead ratio " << fmt(overhead, 4) << " (ceiling "
            << fmt(max_overhead, 2) << ")\n";

  if (!out_path.empty()) {
    perf::BenchRecord record;
    record.name = "obs_overhead";
    record.set_params(JsonObject{{"tasks", n}, {"machines", m}, {"groups", groups},
                                 {"reps", reps}, {"rate", rate},
                                 {"capacity", full_events},
                                 {"drop_capacity", drop_capacity}});
    using perf::Direction, perf::Noise;
    record.add("off_seconds", off_seconds, Direction::kLower, Noise::kTiming);
    record.add("on_seconds", on_seconds, Direction::kLower, Noise::kTiming);
    record.add("off_tasks_per_sec", off_tps, Direction::kHigher, Noise::kTiming);
    record.add("on_tasks_per_sec", on_tps, Direction::kHigher, Noise::kTiming);
    // The ratio is the acceptance criterion (<= 5% overhead) and gates as
    // timing with a small absolute slack so run-to-run jitter around 1.0
    // does not flake; the event/drop accounting is deterministic (the
    // bench hard-fails on any mismatch) and gates "exact".
    record.add("overhead_ratio", overhead, Direction::kLower, Noise::kTiming,
               /*abs_slack=*/0.05);
    record.add("events_recorded", static_cast<double>(events_recorded),
               Direction::kNone, Noise::kExact);
    record.add("events_dropped", static_cast<double>(events_dropped),
               Direction::kNone, Noise::kExact);
    record.add("drop_recorded", static_cast<double>(drop_recorded),
               Direction::kNone, Noise::kExact);
    record.add("drop_dropped", static_cast<double>(drop_dropped),
               Direction::kNone, Noise::kExact);
    record.save(out_path);
  }

  if (overhead > max_overhead) {
    std::cerr << "ext_obs_overhead: OVERHEAD CEILING EXCEEDED -- "
              << fmt(overhead, 4) << " > " << fmt(max_overhead, 2) << "\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
