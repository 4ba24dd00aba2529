// Phase 2 of the paper: the online semi-clairvoyant dispatcher.
//
// Tasks are ranked by a priority order chosen offline (input order for
// List Scheduling, non-increasing estimates for LPT). Whenever a machine
// becomes idle it receives the highest-priority not-yet-dispatched task
// whose replica set M_j contains that machine. Decisions never look at
// actual processing times -- the dispatcher only observes *when* machines
// become idle, exactly as the paper's model prescribes; actual times are
// revealed (consumed from the Realization) at completion.
#pragma once

#include <span>
#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
struct Realization;
class SimWorkspace;

/// Result of a phase-2 run: the timed schedule plus the dispatch trace.
struct DispatchResult {
  Schedule schedule;
  DispatchTrace trace;
};

/// Runs the greedy semi-clairvoyant dispatch.
///
/// \param priority  a permutation of all task ids; earlier = dispatched
///                  first whenever eligible.
/// \param initial_ready  optional per-machine busy-until times (used by
///                  ABO, which dispatches replicated tasks after the
///                  pinned memory-intensive load); empty = all idle at 0.
/// \param speeds    optional per-machine speeds for the uniform-machines
///                  (Q||Cmax) extension: task j occupies machine i for
///                  actual[j] / speeds[i]; empty = identical machines.
///
/// Drain mode: every task released at t = 0. With unit speeds, no
/// initial_ready and every machine in at most one distinct replica set
/// (the paper's singleton, group and full-replication placements), the
/// shape path (sim/shape_dispatch.hpp) list-schedules each set in
/// priority order and derives the trace from the schedule, in
/// O(n log m). Every other call runs the shared phase-2 loop
/// (sim/dispatch_kernel.hpp), where tasks sharing a replica set share one
/// priority-sorted queue, in O((n + m) log m) regardless of replica
/// counts. Both paths write the same schedule, trace and errors.
[[nodiscard]] DispatchResult dispatch_online(const Instance& instance,
                                             const Placement& placement,
                                             const Realization& actual,
                                             const std::vector<TaskId>& priority,
                                             std::vector<Time> initial_ready = {},
                                             std::vector<double> speeds = {});

/// Workspace form of dispatch_online: all per-run state is carved out of
/// `ws` and the result is written into `out` (reusing its capacity), so a
/// caller that keeps one (ws, out) pair per worker thread performs zero
/// steady-state allocation across a sweep. The by-value overload wraps
/// this with a per-thread workspace.
void dispatch_online(const Instance& instance, const Placement& placement,
                     const Realization& actual, const std::vector<TaskId>& priority,
                     std::span<const Time> initial_ready,
                     std::span<const double> speeds, SimWorkspace& ws,
                     DispatchResult& out);

/// The workspace dispatch_online without the trace, for callers that read
/// only the schedule (the ratio experiments): the same paths, schedule,
/// errors and sim.dispatch.* metrics, with no trace built unless an
/// obs::TimelineRecorder is installed: the recorder reads the trace, so
/// the call then builds one for it and records the same events.
void dispatch_online_schedule(const Instance& instance, const Placement& placement,
                              const Realization& actual,
                              const std::vector<TaskId>& priority,
                              std::span<const Time> initial_ready,
                              std::span<const double> speeds, SimWorkspace& ws,
                              Schedule& out);

}  // namespace rdp
