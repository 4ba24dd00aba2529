#include "sim/online_dispatcher.hpp"

#include <cstdint>

#include "core/instance.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/dispatch_kernel.hpp"
#include "sim/shape_dispatch.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

/// The one drain implementation behind both workspace entry points:
/// routing, the sim.dispatch.* metrics and the flight recorder. A null
/// `trace` returns the schedule alone, unless a recorder is installed: it
/// reads the trace, so the call then builds one in a local.
void dispatch_drain(const Instance& instance, const Placement& placement,
                    const Realization& actual, const std::vector<TaskId>& priority,
                    std::span<const Time> initial_ready, std::span<const double> speeds,
                    SimWorkspace& ws, Schedule& schedule, DispatchTrace* trace) {
  // Observability: null sinks reduce every hook below to a dead branch on
  // a cached pointer; nothing here influences dispatch decisions.
  obs::MetricsRegistry* const mx = obs::metrics();
  obs::ScopedSpan span(obs::tracer(), "dispatch_online", "sim");
  obs::TimelineRecorder* const tl = obs::timeline();
  DispatchTrace recorded;
  if (trace == nullptr && tl != nullptr) trace = &recorded;

  // Drain mode: every task released at t = 0. Disjoint replica sets on
  // unit-speed machines all idle at 0 take the shape path; everything
  // else runs the shared loop. Both write the same schedule and trace.
  const bool by_shape =
      initial_ready.empty() && speeds.empty() &&
      dispatch_drain_by_shape("dispatch_online", instance, placement, actual, priority,
                              ws, schedule, trace);
  if (!by_shape) {
    run_dispatch_kernel("dispatch_online", instance, placement, actual, priority, {},
                        initial_ready, speeds, ws, schedule, trace);
  }

  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (mx) {
    mx->counter("sim.dispatch.calls").add(1);
    mx->counter("sim.dispatch.by_shape").add(by_shape ? 1 : 0);
    mx->counter("sim.dispatch.tasks").add(n);
    // Per-machine busy time is recovered from the finished schedule, so
    // the dispatch loop itself carries no instrumentation.
    const std::span<Time> busy = ws.arena.make_span<Time>(m, 0.0);
    for (TaskId j = 0; j < n; ++j) {
      busy[schedule.assignment.machine_of[j]] += schedule.finish[j] - schedule.start[j];
    }
    const Time makespan = schedule.makespan();
    obs::Histogram& idle_hist = mx->histogram("sim.dispatch.machine_idle_time");
    for (MachineId i = 0; i < m; ++i) idle_hist.observe(makespan - busy[i]);
  }

  // Flight recorder: one bulk reserve, starts and finishes in dispatch
  // order. One-shot dispatch has no arrival process -- every task is
  // eligible at t = 0, so kStart/kFinish are the whole lifecycle.
  if (tl != nullptr) {
    const auto block = tl->reserve(2 * n);
    std::size_t cursor = 0;
    for (const DispatchEvent& e : trace->events) {
      if (cursor >= block.count) break;
      block.when[cursor] = e.when;
      block.task[cursor] = e.task;
      block.machine[cursor] = e.machine;
      block.kind[cursor++] =
          static_cast<std::uint8_t>(obs::TimelineEventKind::kStart);
    }
    for (const DispatchEvent& e : trace->events) {
      if (cursor >= block.count) break;
      block.when[cursor] = e.when + e.actual;
      block.task[cursor] = e.task;
      block.machine[cursor] = e.machine;
      block.kind[cursor++] =
          static_cast<std::uint8_t>(obs::TimelineEventKind::kFinish);
    }
  }
}

}  // namespace

void dispatch_online(const Instance& instance, const Placement& placement,
                     const Realization& actual, const std::vector<TaskId>& priority,
                     std::span<const Time> initial_ready,
                     std::span<const double> speeds, SimWorkspace& ws,
                     DispatchResult& out) {
  dispatch_drain(instance, placement, actual, priority, initial_ready, speeds, ws,
                 out.schedule, &out.trace);
}

void dispatch_online_schedule(const Instance& instance, const Placement& placement,
                              const Realization& actual,
                              const std::vector<TaskId>& priority,
                              std::span<const Time> initial_ready,
                              std::span<const double> speeds, SimWorkspace& ws,
                              Schedule& out) {
  dispatch_drain(instance, placement, actual, priority, initial_ready, speeds, ws, out,
                 nullptr);
}

DispatchResult dispatch_online(const Instance& instance, const Placement& placement,
                               const Realization& actual,
                               const std::vector<TaskId>& priority,
                               std::vector<Time> initial_ready,
                               std::vector<double> speeds) {
  DispatchResult result;
  dispatch_online(instance, placement, actual, priority,
                  std::span<const Time>(initial_ready),
                  std::span<const double>(speeds), thread_workspace(), result);
  return result;
}

}  // namespace rdp
