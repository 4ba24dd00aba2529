#include "sim/transfer_dispatcher.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/ready_heap.hpp"
#include "sim/set_queues.hpp"
#include "sim/workspace.hpp"

namespace rdp {

TransferDispatchResult dispatch_with_transfers(const Instance& instance,
                                               const Placement& placement,
                                               const Realization& actual,
                                               const std::vector<TaskId>& priority,
                                               const TransferModel& model) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("dispatch_with_transfers: size mismatch");
  }
  if (!(model.bandwidth > 0.0)) {
    throw std::invalid_argument("dispatch_with_transfers: bandwidth must be > 0");
  }
  // `latency < 0` alone lets NaN through, and a NaN or infinite latency
  // makes every remote run's length meaningless.
  if (!(model.latency >= 0.0) || !std::isfinite(model.latency)) {
    throw std::invalid_argument(
        "dispatch_with_transfers: latency must be finite and non-negative");
  }
  if (placement.num_machines() != m) {
    throw std::invalid_argument(
        "dispatch_with_transfers: placement built for a different machine count");
  }

  SimWorkspace& ws = thread_workspace();
  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  // Local candidates come from the replica-set queues; a remote run takes
  // a task out of the middle of its queue, so fronts skip scheduled tasks
  // lazily. The best remote candidate needs no per-machine structure:
  // when a machine has no local waiting task at all, every waiting task
  // is remote for it, so the globally best-ranked waiting task -- found
  // by a cursor over the priority permutation -- is the remote pick.
  SetQueues queues;
  queues.build(arena, placement, priority, actual.actual, "dispatch_with_transfers");
  const std::span<std::uint8_t> scheduled = arena.make_span<std::uint8_t>(n, 0);
  const auto is_scheduled = [&](TaskId j) { return scheduled[j] != 0; };
  std::size_t head = 0;  // first maybe-unscheduled rank in priority order

  obs::MetricsRegistry* const mx = obs::metrics();
  obs::ScopedSpan span(obs::tracer(), "dispatch_with_transfers", "sim");

  ReadyHeap pool;
  pool.init(arena, m, {});

  TransferDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  std::size_t remaining = n;
  while (remaining > 0) {
    if (pool.empty()) {
      throw std::logic_error("dispatch_with_transfers: no machine available");
    }
    const MachineId i = pool.top();

    const std::uint32_t q = queues.best_queue(i, is_scheduled);
    const bool use_local = q != SetQueues::kNone;
    TaskId j = kNoTask;
    if (use_local) {
      j = queues.pop(q);
    } else {
      while (head < n && scheduled[priority[head]]) ++head;
      if (head < n) j = priority[head];
    }
    if (j == kNoTask) {
      throw std::logic_error("dispatch_with_transfers: no waiting task");
    }
    Time duration = actual[j];
    if (!use_local) {
      const Time fetch = model.latency + instance.size(j) / model.bandwidth;
      duration += fetch;
      result.transfer_time += fetch;
      ++result.remote_runs;
      if (mx) {
        mx->counter("sim.transfer.remote_runs").add(1);
        mx->histogram("sim.transfer.fetch_time").observe(fetch);
      }
    }
    const auto [start, finish] = pool.occupy_top(duration);
    scheduled[j] = 1;
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = finish;
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
    --remaining;
  }

  result.makespan = result.schedule.makespan();
  if (mx) {
    mx->counter("sim.transfer.calls").add(1);
    mx->counter("sim.transfer.tasks").add(n);
  }
  return result;
}

}  // namespace rdp
