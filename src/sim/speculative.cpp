#include "sim/speculative.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/set_queues.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

constexpr Time kNever = std::numeric_limits<Time>::infinity();

enum : std::uint8_t { kWaiting = 0, kRunning = 1, kDone = 2 };

}  // namespace

SpeculativeResult dispatch_speculative(const Instance& instance,
                                       const Placement& placement,
                                       const Realization& actual,
                                       const std::vector<TaskId>& priority,
                                       const SpeedProfile& speeds,
                                       const SpeculationPolicy& policy) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("dispatch_speculative: size mismatch");
  }
  if (speeds.size() != m) {
    throw std::invalid_argument("dispatch_speculative: speed profile mismatch");
  }
  if (placement.num_machines() != m) {
    throw std::invalid_argument(
        "dispatch_speculative: placement built for a different machine count");
  }
  if (policy.max_copies == 0) {
    throw std::invalid_argument("dispatch_speculative: max_copies must be >= 1");
  }
  if (std::isnan(policy.min_estimated_remaining)) {
    // x < NaN is always false: NaN would silently speculate on everything.
    throw std::invalid_argument(
        "dispatch_speculative: min_estimated_remaining must not be NaN");
  }

  SimWorkspace& ws = thread_workspace();
  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  // Waiting tasks sit in the replica-set queues. A task never returns to
  // waiting here (no failures), so each set's head pointer only moves
  // forward and an idle machine's next task is the best front among its
  // sets.
  SetQueues queues;
  queues.build(arena, placement, priority, actual.actual, "dispatch_speculative");

  obs::MetricsRegistry* const mx = obs::metrics();
  obs::Tracer* const tr = obs::tracer();
  obs::ScopedSpan obs_span(tr, "dispatch_speculative", "sim");

  const std::span<std::uint8_t> state = arena.make_span<std::uint8_t>(n, kWaiting);
  const std::span<std::uint8_t> machine_busy = arena.make_span<std::uint8_t>(m, 0);

  // Copies, struct-of-arrays with a fixed per-task stride. Live copies of
  // one task occupy distinct busy machines and none dies before the task
  // completes, so a task never accumulates more than min(max_copies, m)
  // copies over its whole lifetime.
  const std::size_t stride =
      std::min<std::size_t>(policy.max_copies, static_cast<std::size_t>(m));
  const std::span<std::uint32_t> copy_count = arena.make_span<std::uint32_t>(n, 0);
  const std::span<MachineId> copy_machine = arena.allocate_span<MachineId>(n * stride);
  const std::span<Time> copy_start = arena.allocate_span<Time>(n * stride);
  const std::span<Time> copy_finish = arena.allocate_span<Time>(n * stride);
  const std::span<std::uint8_t> copy_alive =
      arena.make_span<std::uint8_t>(n * stride, 0);

  SpeculativeResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  // Running tasks of each replica set, as intrusive doubly-linked lists
  // threaded through per-task links: a backup scan visits only the
  // running tasks of the sets holding the idle machine.
  const std::span<TaskId> running_head =
      arena.make_span<TaskId>(queues.count, kNoTask);
  const std::span<TaskId> running_next = arena.allocate_span<TaskId>(n);
  const std::span<TaskId> running_prev = arena.allocate_span<TaskId>(n);

  SimEventQueue& events = ws.events;
  std::uint64_t seq = 0;
  for (MachineId i = 0; i < m; ++i) {
    events.push(SimEvent{0, kSimEventFree, i, kNoTask, 0, seq++});
  }

  const bool speculation_on = policy.enabled && policy.max_copies >= 2;
  std::size_t remaining = n;

  auto launch = [&](TaskId j, MachineId i, Time now, bool is_backup) {
    const Time duration = actual[j] / speeds.speed(i);
    const std::size_t c = j * stride + copy_count[j];
    copy_machine[c] = i;
    copy_start[c] = now;
    copy_finish[c] = now + duration;
    copy_alive[c] = 1;
    machine_busy[i] = 1;
    if (state[j] == kWaiting) {
      state[j] = kRunning;
      const std::uint32_t q = placement.set_id(j);
      running_prev[j] = kNoTask;
      running_next[j] = running_head[q];
      if (running_head[q] != kNoTask) running_prev[running_head[q]] = j;
      running_head[q] = j;
    }
    if (is_backup) {
      ++result.duplicates_launched;
      if (tr) {
        tr->instant("speculative_copy", "sim",
                    "{\"task\":" + std::to_string(j) +
                        ",\"machine\":" + std::to_string(i) + "}");
      }
    }
    result.trace.events.push_back(DispatchEvent{now, j, i, duration});
    events.push(SimEvent{now + duration, kSimEventFinish, i, j, copy_count[j], seq++});
    ++copy_count[j];
  };

  // Machine i frees at t: it takes its best-ranked waiting task, else a
  // backup copy of a running task, else retires for the rest of the run.
  // Both a popped free event and the finish-time inline free run this.
  auto on_free = [&](MachineId i, Time t) {
    if (machine_busy[i]) return;  // stale

    // 1. Highest-priority waiting task with a replica here.
    if (const std::uint32_t q = queues.best_queue(i); q != SetQueues::kNone) {
      launch(queues.pop(q), i, t, /*is_backup=*/false);
      return;
    }

    // 2. No waiting work: consider speculating on a running task of one
    // of this machine's replica sets. Ties on the latest estimate go to
    // the lowest task id.
    if (speculation_on) {
      TaskId candidate = kNoTask;
      Time latest_estimate = -kNever;
      for (std::uint32_t k = queues.machine_begin[i]; k < queues.machine_begin[i + 1];
           ++k) {
        for (TaskId j = running_head[queues.machine_queues[k]]; j != kNoTask;
             j = running_next[j]) {
          std::size_t live = 0;
          Time earliest_est_finish = kNever;
          for (std::size_t c = j * stride; c < j * stride + copy_count[j]; ++c) {
            if (!copy_alive[c]) continue;
            ++live;
            const Time est =
                copy_start[c] + instance.estimate(j) / speeds.speed(copy_machine[c]);
            earliest_est_finish = std::min(earliest_est_finish, est);
          }
          if (live == 0 || live >= policy.max_copies) continue;
          if (earliest_est_finish - t < policy.min_estimated_remaining) continue;
          // Don't duplicate onto a machine that wouldn't even beat the
          // current copy's *estimated* completion.
          const Time my_est_finish = t + instance.estimate(j) / speeds.speed(i);
          if (my_est_finish >= earliest_est_finish) continue;
          if (earliest_est_finish > latest_estimate ||
              (earliest_est_finish == latest_estimate && j < candidate)) {
            latest_estimate = earliest_est_finish;
            candidate = j;
          }
        }
      }
      if (candidate != kNoTask) {
        launch(candidate, i, t, /*is_backup=*/true);
        return;
      }
    }

    // Nothing to launch: the machine retires, and no event names it
    // again. Waking it later could not launch anything either:
    // - None of its sets has a waiting task now, and no task becomes
    //   waiting again, because this loop has no failures. So step 1 stays
    //   empty, and no new task starts running in its sets.
    // - Every backup condition only gets stricter as t grows: a running
    //   task's live copies only grow until it completes (live <
    //   max_copies), its earliest estimated finish only falls, so the
    //   remaining estimate falls (min_estimated_remaining), and
    //   t + estimate / speed grows (beating the earliest estimate).
    // check::reference_dispatch_speculative still wakes every idle
    // machine on each completion; fuzz check 15 holds this loop to it
    // bit for bit.
  };
  std::uint64_t inline_frees = 0;

  while (remaining > 0) {
    if (events.empty()) {
      throw std::logic_error("dispatch_speculative: event queue drained early");
    }
    const SimEvent e = events.pop();

    if (e.kind == kSimEventFinish) {
      const TaskId j = e.task;
      const std::size_t c = j * stride + e.aux;
      if (!copy_alive[c] || state[j] == kDone) continue;  // killed/stale
      // Winner.
      copy_alive[c] = 0;
      machine_busy[copy_machine[c]] = 0;
      state[j] = kDone;
      const TaskId prev = running_prev[j];
      const TaskId next = running_next[j];
      (prev != kNoTask ? running_next[prev] : running_head[placement.set_id(j)]) = next;
      if (next != kNoTask) running_prev[next] = prev;
      --remaining;
      result.schedule.assignment.machine_of[j] = copy_machine[c];
      result.schedule.start[j] = copy_start[c];
      result.schedule.finish[j] = copy_finish[c];
      if (e.aux > 0) ++result.duplicates_won;
      // Kill every other live copy; their machines free immediately.
      bool killed = false;
      for (std::size_t k = j * stride; k < j * stride + copy_count[j]; ++k) {
        if (k == c || !copy_alive[k]) continue;
        copy_alive[k] = 0;
        machine_busy[copy_machine[k]] = 0;
        result.wasted_time += e.when - copy_start[k];
        events.push(
            SimEvent{e.when, kSimEventFree, copy_machine[k], kNoTask, 0, seq++});
        killed = true;
      }
      // Alone at e.when -- no copy killed (its free queues at e.when,
      // ordered by machine id) and nothing else pending at that instant
      // -- the winner's free would be the next pop: run it now, without
      // the push and pop.
      if (remaining > 0 && !killed && (events.empty() || events.top().when > e.when)) {
        ++inline_frees;
        on_free(copy_machine[c], e.when);
        continue;
      }
      events.push(SimEvent{e.when, kSimEventFree, copy_machine[c], kNoTask, 0, seq++});
      continue;
    }

    on_free(e.machine, e.when);  // machine-free event
  }

  result.makespan = result.schedule.makespan();
  if (mx) {
    mx->counter("sim.speculative.calls").add(1);
    mx->counter("sim.speculative.tasks").add(n);
    mx->counter("sim.speculative.duplicates_launched").add(result.duplicates_launched);
    mx->counter("sim.speculative.duplicates_won").add(result.duplicates_won);
    mx->counter("sim.speculative.inline_frees").add(inline_frees);
    mx->histogram("sim.speculative.wasted_time").observe(result.wasted_time);
  }
  return result;
}

}  // namespace rdp
