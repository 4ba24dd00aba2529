#include "check/reference_dispatcher.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/instance.hpp"
#include "core/realization.hpp"

namespace rdp::check {

namespace {

// Pre-rewrite MachinePool: lazy binary heap that pushes one entry per
// occupy and discards stale entries at the top. (The production pool now
// compacts; this reference deliberately keeps the original shape.)
class LegacyMachinePool {
 public:
  explicit LegacyMachinePool(MachineId num_machines)
      : LegacyMachinePool(std::vector<Time>(num_machines, 0)) {}

  explicit LegacyMachinePool(std::vector<Time> initial_ready)
      : ready_(std::move(initial_ready)), retired_(ready_.size(), false) {
    for (MachineId i = 0; i < ready_.size(); ++i) heap_.push(Slot{ready_[i], i});
  }

  [[nodiscard]] std::optional<MachineId> next_idle() const {
    refresh();
    if (heap_.empty()) return std::nullopt;
    return heap_.top().id;
  }

  std::pair<Time, Time> occupy(MachineId i, Time duration) {
    const Time start = ready_[i];
    const Time finish = start + duration;
    ready_[i] = finish;
    heap_.push(Slot{finish, i});
    return {start, finish};
  }

  void retire(MachineId i) { retired_[i] = true; }

 private:
  struct Slot {
    Time ready;
    MachineId id;
    bool operator<(const Slot& other) const noexcept {
      if (ready != other.ready) return ready > other.ready;  // min-heap
      return id > other.id;
    }
  };

  void refresh() const {
    while (!heap_.empty()) {
      const Slot& top = heap_.top();
      if (retired_[top.id] || ready_[top.id] != top.ready) {
        heap_.pop();
      } else {
        return;
      }
    }
  }

  std::vector<Time> ready_;
  std::vector<bool> retired_;
  mutable std::priority_queue<Slot> heap_;
};

std::uint64_t hash_set(const std::vector<MachineId>& set) {
  std::uint64_t h = 1469598103934665603ULL;
  for (MachineId i : set) {
    h ^= static_cast<std::uint64_t>(i) + 1;
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr Time kNever = std::numeric_limits<Time>::infinity();

// Event order of the naive event-driven references: the production
// SimEventBefore on a std::priority_queue -- finishes before failures
// before frees at equal times, equal-time frees by machine id, else FIFO.
enum class RefEventKind : int { kTaskFinish = 0, kFailure = 1, kMachineFree = 2 };

struct RefEvent {
  Time when;
  RefEventKind kind;
  MachineId machine;
  TaskId task;
  std::uint64_t epoch;
  std::uint64_t seq;

  bool operator<(const RefEvent& other) const noexcept {
    if (when != other.when) return when > other.when;
    if (kind != other.kind) return static_cast<int>(kind) > static_cast<int>(other.kind);
    if (kind == RefEventKind::kMachineFree && machine != other.machine) {
      return machine > other.machine;
    }
    return seq > other.seq;
  }
};

enum class RefStatus { kWaiting, kRunning, kDone };

struct TaskQueue {
  std::vector<TaskId> tasks;  // sorted by priority rank, consumed from front
  std::size_t head = 0;

  [[nodiscard]] bool exhausted() const noexcept { return head >= tasks.size(); }
  [[nodiscard]] TaskId front() const { return tasks[head]; }
};

}  // namespace

DispatchResult reference_dispatch_online(const Instance& instance,
                                         const Placement& placement,
                                         const Realization& actual,
                                         const std::vector<TaskId>& priority,
                                         std::vector<Time> initial_ready,
                                         std::vector<double> speeds) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || placement.num_machines() != m ||
      actual.size() != n || priority.size() != n) {
    throw std::invalid_argument("reference_dispatch_online: size mismatch");
  }

  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < priority.size(); ++r) {
    const TaskId j = priority[r];
    if (j >= n || rank[j] != UINT32_MAX) {
      throw std::invalid_argument(
          "reference_dispatch_online: priority is not a permutation");
    }
    rank[j] = r;
  }

  // Bucket tasks by identical replica sets.
  std::vector<TaskQueue> queues;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
  for (TaskId j = 0; j < n; ++j) {
    const auto& set = placement.machines_for(j);
    const std::uint64_t h = hash_set(set);
    std::size_t q = SIZE_MAX;
    for (std::size_t candidate : buckets[h]) {
      const TaskId representative = queues[candidate].tasks.front();
      if (placement.machines_for(representative) == set) {
        q = candidate;
        break;
      }
    }
    if (q == SIZE_MAX) {
      q = queues.size();
      queues.emplace_back();
      buckets[h].push_back(q);
    }
    queues[q].tasks.push_back(j);
  }
  for (auto& queue : queues) {
    std::sort(queue.tasks.begin(), queue.tasks.end(),
              [&](TaskId a, TaskId b) { return rank[a] < rank[b]; });
  }

  std::vector<std::vector<std::size_t>> queues_of_machine(m);
  for (std::size_t q = 0; q < queues.size(); ++q) {
    for (MachineId i : placement.machines_for(queues[q].tasks.front())) {
      queues_of_machine[i].push_back(q);
    }
  }

  LegacyMachinePool pool = initial_ready.empty()
                               ? LegacyMachinePool(m)
                               : LegacyMachinePool(std::move(initial_ready));

  DispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  std::size_t remaining = n;
  while (remaining > 0) {
    const auto idle = pool.next_idle();
    if (!idle) {
      throw std::logic_error("reference_dispatch_online: deadlock");
    }
    const MachineId i = *idle;

    std::size_t best_queue = SIZE_MAX;
    std::uint32_t best_rank = UINT32_MAX;
    for (std::size_t q : queues_of_machine[i]) {
      const TaskQueue& queue = queues[q];
      if (queue.exhausted()) continue;
      const std::uint32_t r = rank[queue.front()];
      if (r < best_rank) {
        best_rank = r;
        best_queue = q;
      }
    }
    if (best_queue == SIZE_MAX) {
      pool.retire(i);
      continue;
    }

    TaskQueue& queue = queues[best_queue];
    const TaskId j = queue.front();
    ++queue.head;
    const Time duration = speeds.empty() ? actual[j] : actual[j] / speeds[i];
    const auto [start, finish] = pool.occupy(i, duration);
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = finish;
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
    --remaining;
  }
  return result;
}

FailureDispatchResult reference_dispatch_with_failures(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const FailurePlan& plan) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();

  std::vector<Time> fail_time(m, kNever);
  for (const MachineFailure& f : plan.failures) {
    fail_time[f.machine] = std::min(fail_time[f.machine], f.when);
  }
  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) rank[priority[r]] = r;

  std::vector<RefStatus> status(n, RefStatus::kWaiting);
  std::vector<bool> refetch(n, false);
  std::vector<Time> earliest(n, 0);
  std::vector<std::uint64_t> epoch(n, 0);
  std::vector<bool> failed(m, false);
  std::vector<bool> machine_idle(m, false);
  std::vector<TaskId> running_on(m, kNoTask);

  FailureDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);

  std::priority_queue<RefEvent> events;
  std::uint64_t seq = 0;
  for (MachineId i = 0; i < m; ++i) {
    events.push(RefEvent{0, RefEventKind::kMachineFree, i, kNoTask, 0, seq++});
    if (fail_time[i] < kNever) {
      events.push(RefEvent{fail_time[i], RefEventKind::kFailure, i, kNoTask, 0,
                           seq++});
    }
  }

  std::size_t remaining = n;
  auto eligible = [&](TaskId j, MachineId i) {
    if (failed[i]) return false;
    return refetch[j] ? true : placement.allows(j, i);
  };
  auto duration_of = [&](TaskId j) {
    return actual[j] + (refetch[j] ? plan.refetch_penalty : Time{0});
  };
  auto wake_idle_machines = [&](Time t) {
    for (MachineId i = 0; i < m; ++i) {
      if (machine_idle[i] && !failed[i]) {
        machine_idle[i] = false;
        events.push(RefEvent{t, RefEventKind::kMachineFree, i, kNoTask, 0, seq++});
      }
    }
  };

  while (remaining > 0) {
    if (events.empty()) {
      throw std::invalid_argument("reference_dispatch_with_failures: deadlock");
    }
    const RefEvent e = events.top();
    events.pop();
    switch (e.kind) {
      case RefEventKind::kTaskFinish: {
        const TaskId j = e.task;
        if (status[j] != RefStatus::kRunning || epoch[j] != e.epoch) break;
        status[j] = RefStatus::kDone;
        running_on[e.machine] = kNoTask;
        --remaining;
        events.push(RefEvent{e.when, RefEventKind::kMachineFree, e.machine, kNoTask,
                             0, seq++});
        break;
      }
      case RefEventKind::kFailure: {
        const MachineId i = e.machine;
        if (failed[i]) break;
        failed[i] = true;
        machine_idle[i] = false;
        if (running_on[i] != kNoTask) {
          const TaskId j = running_on[i];
          running_on[i] = kNoTask;
          status[j] = RefStatus::kWaiting;
          ++epoch[j];
          earliest[j] = e.when;
          ++result.restarts;
        }
        for (TaskId j = 0; j < n; ++j) {
          if (status[j] != RefStatus::kWaiting || refetch[j]) continue;
          bool any_alive = false;
          for (MachineId machine : placement.machines_for(j)) {
            if (!failed[machine]) {
              any_alive = true;
              break;
            }
          }
          if (!any_alive) {
            refetch[j] = true;
            ++result.refetches;
          }
        }
        wake_idle_machines(e.when);
        break;
      }
      case RefEventKind::kMachineFree: {
        const MachineId i = e.machine;
        if (failed[i] || running_on[i] != kNoTask) break;
        TaskId best_now = kNoTask;
        std::uint32_t best_now_rank = UINT32_MAX;
        Time soonest_future = kNever;
        for (TaskId j = 0; j < n; ++j) {
          if (status[j] != RefStatus::kWaiting || !eligible(j, i)) continue;
          if (earliest[j] <= e.when) {
            if (rank[j] < best_now_rank) {
              best_now_rank = rank[j];
              best_now = j;
            }
          } else {
            soonest_future = std::min(soonest_future, earliest[j]);
          }
        }
        if (best_now != kNoTask) {
          const TaskId j = best_now;
          status[j] = RefStatus::kRunning;
          running_on[i] = j;
          const Time dur = duration_of(j);
          result.schedule.assignment.machine_of[j] = i;
          result.schedule.start[j] = e.when;
          result.schedule.finish[j] = e.when + dur;
          result.trace.events.push_back(DispatchEvent{e.when, j, i, dur});
          events.push(RefEvent{e.when + dur, RefEventKind::kTaskFinish, i, j,
                               epoch[j], seq++});
        } else if (soonest_future < kNever) {
          events.push(RefEvent{soonest_future, RefEventKind::kMachineFree, i,
                               kNoTask, 0, seq++});
        } else {
          machine_idle[i] = true;
        }
        break;
      }
    }
  }
  result.makespan = result.schedule.makespan();
  return result;
}

SpeculativeResult reference_dispatch_speculative(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const SpeedProfile& speeds,
    const SpeculationPolicy& policy) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) rank[priority[r]] = r;

  struct Copy {
    MachineId machine;
    Time start;
    Time finish;
    bool alive;
  };
  std::vector<RefStatus> status(n, RefStatus::kWaiting);
  std::vector<std::vector<Copy>> copies(n);
  std::vector<bool> machine_busy(m, false);
  std::vector<bool> machine_parked(m, false);

  SpeculativeResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);

  std::priority_queue<RefEvent> events;
  std::uint64_t seq = 0;
  for (MachineId i = 0; i < m; ++i) {
    events.push(RefEvent{0, RefEventKind::kMachineFree, i, kNoTask, 0, seq++});
  }

  const bool speculation_on = policy.enabled && policy.max_copies >= 2;
  std::size_t remaining = n;
  auto launch = [&](TaskId j, MachineId i, Time now, bool is_backup) {
    const Time duration = actual[j] / speeds.speed(i);
    copies[j].push_back(Copy{i, now, now + duration, true});
    machine_busy[i] = true;
    status[j] = RefStatus::kRunning;
    if (is_backup) ++result.duplicates_launched;
    result.trace.events.push_back(DispatchEvent{now, j, i, duration});
    events.push(RefEvent{now + duration, RefEventKind::kTaskFinish, i, j,
                         copies[j].size() - 1, seq++});
  };

  while (remaining > 0) {
    if (events.empty()) {
      throw std::logic_error("reference_dispatch_speculative: deadlock");
    }
    const RefEvent e = events.top();
    events.pop();

    if (e.kind == RefEventKind::kTaskFinish) {
      const TaskId j = e.task;
      Copy& winner = copies[j][e.epoch];
      if (!winner.alive || status[j] == RefStatus::kDone) continue;
      winner.alive = false;
      machine_busy[winner.machine] = false;
      status[j] = RefStatus::kDone;
      --remaining;
      result.schedule.assignment.machine_of[j] = winner.machine;
      result.schedule.start[j] = winner.start;
      result.schedule.finish[j] = winner.finish;
      if (e.epoch > 0) ++result.duplicates_won;
      for (Copy& loser : copies[j]) {
        if (!loser.alive) continue;
        loser.alive = false;
        machine_busy[loser.machine] = false;
        result.wasted_time += e.when - loser.start;
        events.push(RefEvent{e.when, RefEventKind::kMachineFree, loser.machine,
                             kNoTask, 0, seq++});
      }
      events.push(RefEvent{e.when, RefEventKind::kMachineFree, winner.machine,
                           kNoTask, 0, seq++});
      for (MachineId i = 0; i < m; ++i) {
        if (!machine_parked[i]) continue;
        machine_parked[i] = false;
        events.push(RefEvent{e.when, RefEventKind::kMachineFree, i, kNoTask, 0,
                             seq++});
      }
      continue;
    }

    const MachineId i = e.machine;
    if (machine_busy[i]) continue;

    // 1. Best-ranked waiting task with a replica here.
    TaskId best = kNoTask;
    for (TaskId j = 0; j < n; ++j) {
      if (status[j] == RefStatus::kWaiting && placement.allows(j, i) &&
          (best == kNoTask || rank[j] < rank[best])) {
        best = j;
      }
    }
    if (best != kNoTask) {
      launch(best, i, e.when, /*is_backup=*/false);
      continue;
    }

    // 2. No waiting work: back up the running task with the latest
    // earliest estimated finish.
    if (speculation_on) {
      TaskId candidate = kNoTask;
      Time latest_estimate = -kNever;
      for (TaskId j = 0; j < n; ++j) {
        if (status[j] != RefStatus::kRunning || !placement.allows(j, i)) continue;
        std::size_t live = 0;
        Time earliest_est_finish = kNever;
        for (const Copy& copy : copies[j]) {
          if (!copy.alive) continue;
          ++live;
          const Time est =
              copy.start + instance.estimate(j) / speeds.speed(copy.machine);
          earliest_est_finish = std::min(earliest_est_finish, est);
        }
        if (live == 0 || live >= policy.max_copies) continue;
        if (earliest_est_finish - e.when < policy.min_estimated_remaining) continue;
        const Time my_est_finish = e.when + instance.estimate(j) / speeds.speed(i);
        if (my_est_finish >= earliest_est_finish) continue;
        if (earliest_est_finish > latest_estimate) {
          latest_estimate = earliest_est_finish;
          candidate = j;
        }
      }
      if (candidate != kNoTask) {
        launch(candidate, i, e.when, /*is_backup=*/true);
        continue;
      }
    }
    machine_parked[i] = true;  // re-woken on the next completion
  }
  result.makespan = result.schedule.makespan();
  return result;
}

TransferDispatchResult reference_dispatch_with_transfers(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const TransferModel& model) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) rank[priority[r]] = r;

  LegacyMachinePool pool(m);
  std::vector<bool> scheduled(n, false);
  TransferDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);

  for (std::size_t dispatched = 0; dispatched < n; ++dispatched) {
    const MachineId i = *pool.next_idle();
    TaskId best_local = kNoTask;
    TaskId best_remote = kNoTask;
    for (TaskId j = 0; j < n; ++j) {
      if (scheduled[j]) continue;
      TaskId& best = placement.allows(j, i) ? best_local : best_remote;
      if (best == kNoTask || rank[j] < rank[best]) best = j;
    }
    const bool local = best_local != kNoTask;
    const TaskId j = local ? best_local : best_remote;
    Time duration = actual[j];
    if (!local) {
      const Time fetch = model.latency + instance.size(j) / model.bandwidth;
      duration += fetch;
      result.transfer_time += fetch;
      ++result.remote_runs;
    }
    const auto [start, finish] = pool.occupy(i, duration);
    scheduled[j] = true;
    result.schedule.assignment.machine_of[j] = i;
    result.schedule.start[j] = start;
    result.schedule.finish[j] = finish;
    result.trace.events.push_back(DispatchEvent{start, j, i, duration});
  }
  result.makespan = result.schedule.makespan();
  return result;
}

StreamingDispatchResult reference_serve_stream(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const std::vector<Time>& arrivals,
    std::vector<Time> initial_ready, std::vector<double> speeds) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n || placement.num_machines() != m ||
      actual.size() != n || priority.size() != n || arrivals.size() != n) {
    throw std::invalid_argument("reference_serve_stream: size mismatch");
  }
  std::vector<std::uint32_t> rank(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < n; ++r) {
    const TaskId j = priority[r];
    if (j >= n || rank[j] != UINT32_MAX) {
      throw std::invalid_argument(
          "reference_serve_stream: priority is not a permutation");
    }
    rank[j] = r;
  }
  std::vector<Time> ready =
      initial_ready.empty() ? std::vector<Time>(m, 0) : std::move(initial_ready);
  std::vector<bool> started(n, false);

  StreamingDispatchResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  result.trace.events.reserve(n);

  for (std::size_t step = 0; step < n; ++step) {
    MachineId i = kNoMachine;
    Time when = kNever;
    for (MachineId k = 0; k < m; ++k) {
      Time earliest = kNever;
      for (TaskId j = 0; j < n; ++j) {
        if (!started[j] && placement.allows(j, k)) {
          earliest = std::min(earliest, arrivals[j]);
        }
      }
      if (earliest == kNever) continue;  // nothing left that k can run
      const Time t = std::max(ready[k], earliest);
      if (t < when) {  // strict: the lowest id wins equal times
        when = t;
        i = k;
      }
    }
    if (i == kNoMachine) {
      throw std::logic_error("reference_serve_stream: deadlock");
    }
    TaskId best = kNoTask;
    for (TaskId j = 0; j < n; ++j) {
      if (!started[j] && placement.allows(j, i) && arrivals[j] <= when &&
          (best == kNoTask || rank[j] < rank[best])) {
        best = j;
      }
    }
    const Time duration = speeds.empty() ? actual[best] : actual[best] / speeds[i];
    const Time finish = when + duration;
    ready[i] = finish;
    started[best] = true;
    result.schedule.assignment.machine_of[best] = i;
    result.schedule.start[best] = when;
    result.schedule.finish[best] = finish;
    result.trace.events.push_back(DispatchEvent{when, best, i, duration});
  }

  for (TaskId j = 0; j < n; ++j) {
    std::size_t backlog = 0;
    for (TaskId k = 0; k < n; ++k) {
      if (arrivals[k] <= arrivals[j]) ++backlog;
      if (result.schedule.start[k] < arrivals[j]) --backlog;
    }
    result.peak_backlog = std::max(result.peak_backlog, backlog);
  }
  return result;
}

}  // namespace rdp::check
