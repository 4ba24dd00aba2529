#include "serve/streaming_dispatcher.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "core/instance.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/dispatch_kernel.hpp"
#include "sim/workspace.hpp"

namespace rdp {

void serve_stream(const Instance& instance, const Placement& placement,
                  const Realization& actual, const std::vector<TaskId>& priority,
                  std::span<const Time> arrivals,
                  std::span<const Time> initial_ready,
                  std::span<const double> speeds, SimWorkspace& ws,
                  StreamingDispatchResult& out) {
  const std::size_t n = instance.num_tasks();
  // The loop reads an empty arrivals span as drain mode; a stream must
  // name every task's release time.
  if (arrivals.size() != n) {
    throw std::invalid_argument("serve_stream: arrivals must cover every task");
  }
  obs::MetricsRegistry* const mx = obs::metrics();
  obs::ScopedSpan span(obs::tracer(), "serve_stream", "serve");

  const DispatchKernelStats stats =
      run_dispatch_kernel("serve_stream", instance, placement, actual, priority,
                          arrivals, initial_ready, speeds, ws, out.schedule, &out.trace);
  out.peak_backlog = stats.peak_backlog;

  if (mx) {
    mx->counter("serve.stream.calls").add(1);
    mx->counter("serve.stream.tasks").add(n);
    mx->counter("serve.stream.wakes").add(stats.wakes);
    mx->counter("serve.stream.parks").add(stats.parks);
    mx->counter("serve.stream.direct_starts").add(stats.direct_starts);
    mx->gauge("serve.stream.peak_backlog")
        .set_max(static_cast<double>(out.peak_backlog));
  }

  // Flight recorder: one bulk reserve for the whole run (3 events per
  // task -- all arrivals, then all starts, then all finishes, each in
  // task order), filled from data already in hand; the dispatch loop
  // above never touches the recorder. Column-major passes (memcpy /
  // iota / fill per column) keep the fill at memory-copy speed, which
  // is what holds ext_obs_overhead under its 5% budget. kArrive doubles
  // as admission since this service admits at arrival.
  if (obs::TimelineRecorder* const tl = obs::timeline(); tl != nullptr) {
    const auto block = tl->reserve(3 * n);
    // Capacity may clamp the block; truncate segment by segment.
    const std::size_t na = std::min(n, block.count);
    const std::size_t ns = std::min(n, block.count - na);
    const std::size_t nf = std::min(n, block.count - na - ns);
    std::copy_n(arrivals.data(), na, block.when);
    std::copy_n(out.schedule.start.data(), ns, block.when + na);
    std::copy_n(out.schedule.finish.data(), nf, block.when + na + ns);
    std::iota(block.task, block.task + na, TaskId{0});
    std::iota(block.task + na, block.task + na + ns, TaskId{0});
    std::iota(block.task + na + ns, block.task + na + ns + nf, TaskId{0});
    const MachineId* const machine_of =
        out.schedule.assignment.machine_of.data();
    std::fill_n(block.machine, na, obs::kTimelineNone);
    std::copy_n(machine_of, ns, block.machine + na);
    std::copy_n(machine_of, nf, block.machine + na + ns);
    std::memset(block.kind,
                static_cast<int>(obs::TimelineEventKind::kArrive), na);
    std::memset(block.kind + na,
                static_cast<int>(obs::TimelineEventKind::kStart), ns);
    std::memset(block.kind + na + ns,
                static_cast<int>(obs::TimelineEventKind::kFinish), nf);
  }
}

StreamingDispatchResult serve_stream(const Instance& instance,
                                     const Placement& placement,
                                     const Realization& actual,
                                     const std::vector<TaskId>& priority,
                                     std::span<const Time> arrivals,
                                     std::vector<Time> initial_ready,
                                     std::vector<double> speeds) {
  StreamingDispatchResult result;
  serve_stream(instance, placement, actual, priority, arrivals,
               std::span<const Time>(initial_ready),
               std::span<const double>(speeds), thread_workspace(), result);
  return result;
}

ServeStats compute_serve_stats(const Schedule& schedule,
                               std::span<const Time> arrivals) {
  const std::size_t n = schedule.num_tasks();
  if (arrivals.size() != n) {
    throw std::invalid_argument("compute_serve_stats: arrivals size mismatch");
  }
  obs::LocalHistogram response;
  obs::LocalHistogram queue_wait;
  obs::LocalHistogram service;
  ServeStats stats;
  bool any = false;
  for (TaskId j = 0; j < n; ++j) {
    if (schedule.assignment.machine_of[j] == kNoMachine) continue;
    response.observe(schedule.finish[j] - arrivals[j]);
    queue_wait.observe(schedule.start[j] - arrivals[j]);
    service.observe(schedule.finish[j] - schedule.start[j]);
    if (!any) {
      stats.first_arrival = arrivals[j];
      stats.last_finish = schedule.finish[j];
      any = true;
    } else {
      stats.first_arrival = std::min(stats.first_arrival, arrivals[j]);
      stats.last_finish = std::max(stats.last_finish, schedule.finish[j]);
    }
  }
  stats.response = response.summary();
  stats.queue_wait = queue_wait.summary();
  stats.service = service.summary();
  return stats;
}

}  // namespace rdp
