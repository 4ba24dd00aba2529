// The streaming dispatcher: the paper's phase-2 semi-clairvoyant loop
// lifted from one-shot (all n tasks known at t = 0, dispatch until
// drained) to a long-lived service where tasks are released over time.
//
// A task becomes eligible at its arrival time; whenever a machine is
// idle it takes the highest-priority *admitted* task whose replica set
// contains it, or parks until an arrival makes one eligible. The loop
// itself is sim/dispatch_kernel.hpp, which dispatch_online runs in drain
// mode (every task released at t = 0) unless its shape path serves the
// call, so with every arrival at t = 0 the schedule and trace equal
// dispatch_online's. Fuzz check 12 holds drain mode, and check 17 the
// shape path, to the retained offline oracle, and check 16 holds
// staggered streams to a naive streaming oracle (check/fuzz.cpp,
// docs/SERVING.md).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
struct Realization;
class SimWorkspace;

/// Result of a streaming run: the timed schedule, the chronological
/// dispatch trace, and the high-water mark of admitted-but-unstarted
/// tasks (the backlog a real queue would have held).
struct StreamingDispatchResult {
  Schedule schedule;
  DispatchTrace trace;
  std::size_t peak_backlog = 0;
};

/// Runs the streaming dispatch loop until every task has been served.
///
/// \param arrivals  per-task release times (finite, >= 0); task j cannot
///                  start before arrivals[j]. Equal-time arrivals are
///                  admitted in task-id order.
/// \param priority / initial_ready / speeds  as in dispatch_online.
[[nodiscard]] StreamingDispatchResult serve_stream(
    const Instance& instance, const Placement& placement,
    const Realization& actual, const std::vector<TaskId>& priority,
    std::span<const Time> arrivals, std::vector<Time> initial_ready = {},
    std::vector<double> speeds = {});

/// Workspace form: per-run state is carved out of `ws`, results reuse
/// `out`'s capacity (zero steady-state allocation across runs).
void serve_stream(const Instance& instance, const Placement& placement,
                  const Realization& actual, const std::vector<TaskId>& priority,
                  std::span<const Time> arrivals,
                  std::span<const Time> initial_ready,
                  std::span<const double> speeds, SimWorkspace& ws,
                  StreamingDispatchResult& out);

/// Response-time decomposition of a streaming schedule: for each task,
///   queue wait = start - arrival   (admission to first byte of work)
///   service    = finish - start    (time on the machine)
///   response   = finish - arrival  (what the caller experienced; sojourn)
/// Built from the schedule after the fact through three unlocked
/// obs::LocalHistograms (HDR quantiles, <= 0.8% error), so the dispatch
/// loop itself carries no instrumentation. Summaries rather than the
/// histograms themselves: each histogram is 4099 buckets, a summary 72
/// bytes.
struct ServeStats {
  obs::LocalHistogram::Summary response;
  obs::LocalHistogram::Summary queue_wait;
  obs::LocalHistogram::Summary service;
  Time first_arrival = 0;
  Time last_finish = 0;
};

[[nodiscard]] ServeStats compute_serve_stats(const Schedule& schedule,
                                             std::span<const Time> arrivals);

}  // namespace rdp
