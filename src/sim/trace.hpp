// Dispatch trace: the ordered record of phase-2 decisions, plus a plain
// text Gantt rendering used by the figure-reproduction binaries and the
// example applications.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;
struct Schedule;

/// One dispatch decision.
struct DispatchEvent {
  Time when;       ///< time the machine became idle and took the task
  TaskId task;     ///< dispatched task
  MachineId machine;
  Time actual;     ///< actual processing time (known only at when+actual)
};

/// The chronological record of one dispatch: events in the order machines
/// took them, equal times in machine-id order.
///
/// In drain mode the trace is a function of the schedule: every task,
/// taken in priority order, stably sorted by (start, machine). A machine
/// runs its tasks in priority order (it always takes the best-ranked task
/// it holds that is still waiting), and the stable sort keeps a machine's
/// zero-length tasks at one instant in that order. dispatch_online's shape
/// path (sim/shape_dispatch) derives the trace this way after scheduling;
/// the streaming loop (sim/dispatch_kernel) emits it as it dispatches.
///
/// Callers that read only the schedule, the ratio experiments among them,
/// call dispatch_online_schedule, which builds no trace. The remaining
/// readers are:
///  - the flight recorder (obs::TimelineRecorder), fed by dispatch_online
///    and by dispatch_online_schedule, which builds the trace only while a
///    recorder is installed;
///  - StrategyResult::trace and AboResult::trace, which the fig2 and fig5
///    benches print with render_trace;
///  - the fuzz checks that hold a dispatcher to its oracle event by event
///    (check/fuzz.cpp) and the trace-accounting check;
///  - serve's drain-mode comparison with dispatch_online in bench/e2e
///    (`verify_once`) and bench/ext_serve_throughput.
struct DispatchTrace {
  std::vector<DispatchEvent> events;

  [[nodiscard]] std::size_t size() const noexcept { return events.size(); }
};

/// Fixed-width ASCII Gantt chart of a schedule (one row per machine,
/// columns proportional to time). `width` is the chart width in chars.
[[nodiscard]] std::string render_gantt(const Instance& instance,
                                       const Schedule& schedule, int width = 72);

/// One-line-per-event textual dump of a trace.
[[nodiscard]] std::string render_trace(const DispatchTrace& trace);

}  // namespace rdp
