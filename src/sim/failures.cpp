#include "sim/failures.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/set_queues.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::infinity();

enum : std::uint8_t { kWaiting = 0, kRunning = 1, kDone = 2 };

// (priority rank, task) min-heaps over the workspace's overflow vectors.
// Entries are invalidated lazily: a pop whose task is no longer kWaiting
// is skipped. Duplicates are harmless for the same reason.
inline void heap_push(std::vector<RankedTask>& heap, RankedTask entry) {
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}

inline void heap_pop(std::vector<RankedTask>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  heap.pop_back();
}

}  // namespace

void dispatch_with_failures(const Instance& instance, const Placement& placement,
                            const Realization& actual,
                            const std::vector<TaskId>& priority,
                            const FailurePlan& plan, SimWorkspace& ws,
                            FailureDispatchResult& out) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("dispatch_with_failures: size mismatch");
  }
  if (placement.num_machines() != m) {
    throw std::invalid_argument(
        "dispatch_with_failures: placement built for a different machine count");
  }
  // `penalty < 0` alone lets NaN through (every comparison with NaN is
  // false) and a NaN duration would poison the event queue ordering.
  if (!(plan.refetch_penalty >= 0) || !std::isfinite(plan.refetch_penalty)) {
    throw std::invalid_argument(
        "dispatch_with_failures: refetch penalty must be finite and >= 0");
  }

  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  const std::span<Time> fail_time = arena.make_span<Time>(m, kNever);
  for (const MachineFailure& f : plan.failures) {
    if (f.machine >= m) {
      throw std::invalid_argument("dispatch_with_failures: bad failure machine");
    }
    if (!(f.when >= 0) || !std::isfinite(f.when)) {
      throw std::invalid_argument(
          "dispatch_with_failures: failure time must be finite and >= 0");
    }
    fail_time[f.machine] = std::min(fail_time[f.machine], f.when);
  }

  // Tasks never dispatched are served from the replica-set queues.
  const std::span<std::uint32_t> rank = arena.allocate_span<std::uint32_t>(n);
  SetQueues queues;
  queues.build(arena, placement, priority, actual.actual, "dispatch_with_failures",
               [&](std::uint32_t, TaskId j, std::uint32_t r, Time) { rank[j] = r; });

  obs::MetricsRegistry* const mx = obs::metrics();
  obs::Tracer* const tr = obs::tracer();
  obs::TimelineRecorder* const tl = obs::timeline();
  obs::ScopedSpan span(tr, "dispatch_with_failures", "sim");

  // SoA hot fields, all arena-backed.
  const std::span<std::uint8_t> status = arena.make_span<std::uint8_t>(n, kWaiting);
  const std::span<std::uint8_t> refetch = arena.make_span<std::uint8_t>(n, 0);
  const std::span<std::uint32_t> epoch = arena.make_span<std::uint32_t>(n, 0);
  const std::span<std::uint8_t> failed = arena.make_span<std::uint8_t>(m, 0);
  const std::span<std::uint8_t> machine_idle = arena.make_span<std::uint8_t>(m, 0);
  const std::span<TaskId> running_on = arena.make_span<TaskId>(m, kNoTask);

  // Live machines per replica set. All tasks of a set lose their last
  // replica together, so a failure only decrements the sets holding the
  // dead machine, and a set reaching zero refetches its waiting tasks.
  const std::span<std::uint32_t> alive_in_set =
      arena.allocate_span<std::uint32_t>(queues.count);
  for (std::uint32_t q = 0; q < queues.count; ++q) {
    alive_in_set[q] = static_cast<std::uint32_t>(placement.distinct_set(q).size());
  }
  std::vector<TaskId> lost;  // tasks refetched by one failure, by id

  // A live machine serves its replica-set queues, and no task in them is
  // ever refetched: a task refetches only once every machine of its set
  // is dead, and dead machines never read a queue again. So the tasks
  // past each head a live machine reads are exactly the never-dispatched
  // ones, all runnable now. Restarted and refetched tasks go onto
  // per-machine overflow heaps instead: pushed onto each live machine
  // that could run them (their replica set, or every live machine once
  // refetched), going stale in place when the task is dispatched -- pops
  // discard entries whose task is not waiting. A machine's eligibility
  // can only grow (refetch) or the machine dies (its heap is never
  // consulted again), so a popped entry with a waiting task is always
  // currently runnable on that machine.
  auto push_everywhere = [&](TaskId j) {
    for (MachineId i = 0; i < m; ++i) {
      if (!failed[i]) heap_push(ws.machine_heaps[i], RankedTask{rank[j], j});
    }
  };

  out.schedule.assignment.machine_of.assign(n, kNoMachine);
  out.schedule.start.assign(n, 0);
  out.schedule.finish.assign(n, 0);
  out.trace.events.clear();
  out.trace.events.reserve(n);
  out.restarts = 0;
  out.refetches = 0;
  out.makespan = 0;
  out.events_processed = 0;

  SimEventQueue& events = ws.events;
  std::uint64_t seq = 0;
  for (MachineId i = 0; i < m; ++i) {
    events.push(SimEvent{0, kSimEventFree, i, kNoTask, 0, seq++});
    if (fail_time[i] < kNever) {
      events.push(SimEvent{fail_time[i], kSimEventFailure, i, kNoTask, 0, seq++});
    }
  }

  std::size_t remaining = n;

  auto duration_of = [&](TaskId j) {
    return actual[j] + (refetch[j] ? plan.refetch_penalty : Time{0});
  };

  // Requeue-time wakeups: when tasks become waiting again (failure), idle
  // machines get a machine-free event.
  auto wake_idle_machines = [&](Time t) {
    for (MachineId i = 0; i < m; ++i) {
      if (machine_idle[i] && !failed[i]) {
        machine_idle[i] = 0;
        events.push(SimEvent{t, kSimEventFree, i, kNoTask, 0, seq++});
      }
    }
  };

  // Machine i frees at t: it starts its best-ranked waiting task, or
  // idles until the next requeue. Both a popped free event and the
  // finish-time inline free run this.
  auto on_free = [&](MachineId i, Time t) {
    if (failed[i] || running_on[i] != kNoTask) return;
    // Best-ranked waiting task runnable here: the best queue front,
    // unless the overflow heap holds a better one. A restarted task is
    // runnable from its failure time on, and events pop in time order,
    // so every waiting task is runnable by the time a machine frees.
    const std::uint32_t q = queues.best_queue(i);
    const std::uint32_t queue_rank =
        q == SetQueues::kNone ? UINT32_MAX : rank[queues.tasks[queues.head[q]]];
    std::vector<RankedTask>& heap = ws.machine_heaps[i];
    // Stale entries: dispatched or done since they were pushed.
    while (!heap.empty() && status[heap.front().second] != kWaiting) heap_pop(heap);
    TaskId j = kNoTask;
    if (!heap.empty() && heap.front().first < queue_rank) {
      j = heap.front().second;
      heap_pop(heap);
    } else if (q != SetQueues::kNone) {
      j = queues.pop(q);
    }
    if (j == kNoTask) {
      machine_idle[i] = 1;  // re-woken on the next requeue
      return;
    }
    status[j] = kRunning;
    running_on[i] = j;
    const Time dur = duration_of(j);
    out.schedule.assignment.machine_of[j] = i;
    out.schedule.start[j] = t;
    out.schedule.finish[j] = t + dur;
    out.trace.events.push_back(DispatchEvent{t, j, i, dur});
    events.push(SimEvent{t + dur, kSimEventFinish, i, j, epoch[j], seq++});
  };
  std::uint64_t inline_frees = 0;

  while (remaining > 0) {
    if (events.empty()) {
      throw std::invalid_argument(
          "dispatch_with_failures: tasks remain but no machine can run them "
          "(every machine failed)");
    }
    const SimEvent e = events.pop();
    ++out.events_processed;

    switch (e.kind) {
      case kSimEventFinish: {
        const TaskId j = e.task;
        if (status[j] != kRunning || epoch[j] != e.aux) {
          break;  // this attempt was killed by a failure
        }
        status[j] = kDone;
        running_on[e.machine] = kNoTask;
        --remaining;
        // With no other event at e.when pending, the machine's free event
        // would be the next pop: run it now, without the push and pop. It
        // still counts as an event. Ties (a finish, failure or free at the
        // same instant) keep the queued path and its order. The last
        // task's free is never popped, so it is neither run nor counted.
        if (remaining > 0 && (events.empty() || events.top().when > e.when)) {
          ++out.events_processed;
          ++inline_frees;
          on_free(e.machine, e.when);
        } else {
          events.push(SimEvent{e.when, kSimEventFree, e.machine, kNoTask, 0, seq++});
        }
        break;
      }
      case kSimEventFailure: {
        const MachineId i = e.machine;
        if (failed[i]) break;
        failed[i] = 1;
        machine_idle[i] = 0;
        if (mx) mx->counter("sim.failures.machine_failures").add(1);
        if (tr) {
          tr->instant("machine_failure", "sim",
                      "{\"machine\":" + std::to_string(i) + "}");
        }
        if (tl) tl->record(e.when, obs::TimelineEventKind::kFailure,
                           obs::kTimelineNone, i);
        // Kill the running attempt, if any.
        TaskId restarted = kNoTask;
        if (running_on[i] != kNoTask) {
          const TaskId j = running_on[i];
          running_on[i] = kNoTask;
          status[j] = kWaiting;
          ++epoch[j];
          ++out.restarts;
          restarted = j;
        }
        // A waiting task losing its last replica must refetch and becomes
        // runnable on every surviving machine. Only waiting tasks can be
        // stranded (running implies a live replica hosts it), and a set
        // dies once, so no task is marked twice.
        lost.clear();
        for (std::uint32_t k = queues.machine_begin[i]; k < queues.machine_begin[i + 1];
             ++k) {
          const std::uint32_t q = queues.machine_queues[k];
          if (--alive_in_set[q] > 0) continue;
          for (std::uint32_t pos = queues.begin[q]; pos < queues.begin[q + 1]; ++pos) {
            if (status[queues.tasks[pos]] == kWaiting) lost.push_back(queues.tasks[pos]);
          }
        }
        std::sort(lost.begin(), lost.end());
        for (const TaskId j : lost) {
          refetch[j] = 1;
          ++out.refetches;
          if (tl) tl->record(e.when, obs::TimelineEventKind::kRefetch, j);
          push_everywhere(j);
        }
        // Re-advertise the killed attempt. A previously-refetched task
        // must be pushed everywhere again: its old entries were consumed
        // (or lazily drained) when it was dispatched the first time.
        if (restarted != kNoTask) {
          if (refetch[restarted]) {
            push_everywhere(restarted);
          } else {
            for (MachineId machine : placement.machines_for(restarted)) {
              if (!failed[machine]) {
                heap_push(ws.machine_heaps[machine],
                          RankedTask{rank[restarted], restarted});
              }
            }
          }
        }
        wake_idle_machines(e.when);
        break;
      }
      case kSimEventFree:
        on_free(e.machine, e.when);
        break;
    }
  }

  out.makespan = out.schedule.makespan();
  if (mx) {
    mx->counter("sim.failures.calls").add(1);
    mx->counter("sim.failures.tasks").add(n);
    mx->counter("sim.failures.restarts").add(out.restarts);
    mx->counter("sim.failures.refetches").add(out.refetches);
    mx->counter("sim.failures.inline_frees").add(inline_frees);
  }

  // Flight recorder: failures/refetches were recorded inline at their
  // event times (low-rate); the surviving attempt of every task comes
  // from the final schedule in one bulk block. Killed attempts appear in
  // out.trace but not here -- the timeline answers "when did task j
  // actually run", the kFailure markers explain the gaps.
  if (tl != nullptr) {
    const auto block = tl->reserve(2 * static_cast<std::size_t>(n));
    std::size_t cursor = 0;
    for (TaskId j = 0; j < n && cursor < block.count; ++j, ++cursor) {
      block.when[cursor] = out.schedule.start[j];
      block.task[cursor] = j;
      block.machine[cursor] = out.schedule.assignment.machine_of[j];
      block.kind[cursor] =
          static_cast<std::uint8_t>(obs::TimelineEventKind::kStart);
    }
    for (TaskId j = 0; j < n && cursor < block.count; ++j, ++cursor) {
      block.when[cursor] = out.schedule.finish[j];
      block.task[cursor] = j;
      block.machine[cursor] = out.schedule.assignment.machine_of[j];
      block.kind[cursor] =
          static_cast<std::uint8_t>(obs::TimelineEventKind::kFinish);
    }
  }
}

FailureDispatchResult dispatch_with_failures(const Instance& instance,
                                             const Placement& placement,
                                             const Realization& actual,
                                             const std::vector<TaskId>& priority,
                                             const FailurePlan& plan) {
  FailureDispatchResult result;
  dispatch_with_failures(instance, placement, actual, priority, plan,
                         thread_workspace(), result);
  return result;
}

}  // namespace rdp
