// Extension experiment: cost of the --debug-checks invariant
// re-validation that PR 4 wires into the experiment hot paths, and --
// more importantly -- proof that the *disabled* path is free. Three
// loops over the same fuzzed dispatch workload:
//
//   baseline     -- dispatch_online alone, no guard at all;
//   guarded-off  -- dispatch + the exact guard the wired code pays when
//                   checks are disabled (one relaxed atomic load and a
//                   never-taken branch);
//   guarded-on   -- dispatch + full check_invariants() re-validation,
//                   i.e. what RDP_DEBUG_CHECKS=1 costs.
//
// The interesting numbers are (guarded-off - baseline), which must be
// noise, and the guarded-on multiplier, which bounds how much slower a
// debug-checked sweep runs. Every guarded-on run must also come back
// clean: a violation here means a dispatcher bug escaped the fuzzer.
//
// Usage: ext_check_overhead [--cases=400] [--reps=50] [--max-n=24]
//        [--max-m=6] [--seed=1] [--out=BENCH_check_overhead.json]
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/invariants.hpp"
#include "cli/args.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "perf/bench_record.hpp"
#include "sim/online_dispatcher.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::size_t cases =
      static_cast<std::size_t>(args.get("cases", std::int64_t{400}));
  const std::size_t reps =
      static_cast<std::size_t>(args.get("reps", std::int64_t{50}));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get("seed", std::int64_t{1}));
  const std::string out_path = args.get("out", std::string{});

  check::FuzzCaseConfig gen;
  gen.max_tasks = static_cast<std::size_t>(args.get("max-n", std::int64_t{24}));
  gen.max_machines = static_cast<MachineId>(args.get("max-m", std::int64_t{6}));

  std::vector<check::FuzzCase> workload;
  workload.reserve(cases);
  for (std::size_t c = 0; c < cases; ++c) {
    workload.push_back(check::make_fuzz_case(seed + c, gen));
  }
  const std::size_t dispatches = cases * reps;

  // Accumulate makespans so the optimizer cannot drop the dispatch.
  double sink = 0;

  const auto start_baseline = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const check::FuzzCase& c : workload) {
      sink += dispatch_online(c.instance, c.placement, c.actual, c.priority)
                  .schedule.makespan();
    }
  }
  const double baseline_s = seconds_since(start_baseline);

  check::set_debug_checks(false);
  const auto start_off = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const check::FuzzCase& c : workload) {
      const DispatchResult run =
          dispatch_online(c.instance, c.placement, c.actual, c.priority);
      if (check::debug_checks_enabled()) {
        check::throw_on_violations(
            check::check_invariants(c.instance, c.placement, c.actual,
                                    run.schedule),
            "ext_check_overhead");
      }
      sink += run.schedule.makespan();
    }
  }
  const double off_s = seconds_since(start_off);

  check::set_debug_checks(true);
  const auto start_on = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    for (const check::FuzzCase& c : workload) {
      const DispatchResult run =
          dispatch_online(c.instance, c.placement, c.actual, c.priority);
      if (check::debug_checks_enabled()) {
        check::throw_on_violations(
            check::check_invariants(c.instance, c.placement, c.actual,
                                    run.schedule),
            "ext_check_overhead");
      }
      sink += run.schedule.makespan();
    }
  }
  const double on_s = seconds_since(start_on);
  check::set_debug_checks(false);

  const double per_dispatch_ns = 1e9 / static_cast<double>(dispatches);
  const double off_overhead_ns = (off_s - baseline_s) * per_dispatch_ns;
  const double on_overhead_ns = (on_s - baseline_s) * per_dispatch_ns;
  const double multiplier = baseline_s > 0 ? on_s / baseline_s : 0;

  TextTable table({"path", "seconds", "ns/dispatch", "overhead ns"});
  table.add_row({"baseline", fmt(baseline_s, 3),
                 fmt(baseline_s * per_dispatch_ns, 1), "0"});
  table.add_row({"guarded-off", fmt(off_s, 3), fmt(off_s * per_dispatch_ns, 1),
                 fmt(off_overhead_ns, 1)});
  table.add_row({"guarded-on", fmt(on_s, 3), fmt(on_s * per_dispatch_ns, 1),
                 fmt(on_overhead_ns, 1)});
  std::cout << "ext_check_overhead: " << cases << " fuzz cases x " << reps
            << " reps (" << dispatches << " dispatches)\n"
            << table.render() << "debug-checks multiplier: " << fmt(multiplier, 2)
            << "x   (sink " << sink << ")\n";

  if (!out_path.empty()) {
    perf::BenchRecord record;
    record.name = "check_overhead";
    record.set_params(JsonObject{{"cases", cases}, {"reps", reps}});
    using perf::Direction, perf::Noise;
    record.add("baseline_seconds", baseline_s, Direction::kLower, Noise::kTiming);
    record.add("guarded_off_seconds", off_s, Direction::kLower, Noise::kTiming);
    record.add("guarded_on_seconds", on_s, Direction::kLower, Noise::kTiming);
    // Per-dispatch overheads are differences of noisy timings and can be a
    // handful of (even negative) nanoseconds: grant absolute slack so the
    // gate only fires on order-of-magnitude blowups, not scheduler jitter.
    record.add("off_overhead_ns_per_dispatch", off_overhead_ns, Direction::kLower,
               Noise::kTiming, /*abs_slack=*/50.0);
    record.add("on_overhead_ns_per_dispatch", on_overhead_ns, Direction::kLower,
               Noise::kTiming, /*abs_slack=*/500.0);
    record.add("multiplier", multiplier, Direction::kLower, Noise::kTiming,
               /*abs_slack=*/0.05);
    record.save(out_path);
  }
  return EXIT_SUCCESS;
}
