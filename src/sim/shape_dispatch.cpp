#include "sim/shape_dispatch.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/bucket_sort.hpp"
#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/prefetch.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "core/winner_tree.hpp"
#include "sim/set_queues.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

/// How many ranks ahead both passes ask for a task's entries: an LPT
/// priority visits the task-indexed arrays at random.
constexpr std::size_t kPrefetchAhead = 16;

/// A replica set's winner tree. Leaf k is machine `machines[k]`; the set
/// is sorted, so a tie goes to the lower machine id.
struct SetTree {
  WinnerTree tree;
  const MachineId* machines;
};

[[noreturn]] void reject(const char* who, const char* what) {
  throw std::invalid_argument(std::string(who) + ": " + what);
}

/// Pass 1: list scheduling inside each set, in priority order, checking
/// the priority and the durations rank by rank as SetQueues::build does.
/// machine_of arrives filled with kNoMachine, so a task met twice is one
/// already placed. With one set the walk visits the trace in order and
/// appends it to `*events` (reserved, so with no zero-fill first), unless
/// `events` is null; otherwise returns the latest start for the trace
/// pass.
template <bool kOneSet>
Time list_schedule_sets(const char* who, std::span<const TaskId> priority,
                        std::span<const Time> actual,
                        std::span<const std::uint32_t> set_ids, SetTree* sets,
                        Schedule& schedule, std::vector<DispatchEvent>* events) {
  const std::size_t n = priority.size();
  MachineId* const machine_of = schedule.assignment.machine_of.data();
  Time* const start = schedule.start.data();
  Time* const finish = schedule.finish.data();
  Time latest = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (r + kPrefetchAhead < n) {
      if (const TaskId ahead = priority[r + kPrefetchAhead]; ahead < n) {
        prefetch(&actual[ahead]);
        if (!kOneSet) prefetch(&set_ids[ahead]);
        prefetch(&machine_of[ahead]);
        prefetch(&start[ahead]);
        prefetch(&finish[ahead]);
      }
    }
    const TaskId j = priority[r];
    if (j >= n || machine_of[j] != kNoMachine) {
      reject(who, "priority is not a permutation");
    }
    const Time d = actual[j];
    if (!(d >= 0.0 && d <= std::numeric_limits<Time>::max())) {
      SetQueues::reject_duration(who);
    }
    SetTree& set = sets[kOneSet ? 0 : set_ids[j]];
    const MachineId i = set.machines[set.tree.min_id()];
    const Time begin = set.tree.min_load();
    // The leaf's new load is begin + d, the kernel's finish arithmetic.
    const Time end = set.tree.add_to_min(d);
    machine_of[j] = i;
    start[j] = begin;
    finish[j] = end;
    if constexpr (kOneSet) {
      if (events != nullptr) events->push_back(DispatchEvent{begin, j, i, d});
    } else {
      latest = std::max(latest, begin);
    }
  }
  return latest;
}

/// Pass 2: the drain trace from the schedule -- every task, taken in
/// priority order, stably sorted by (start, machine). Starts lie in
/// [0, latest] (each set's first task starts at 0); the tasks are
/// scattered in priority order into monotone start buckets and sorted
/// within them (core/bucket_sort.hpp). The only scratch is the bucket
/// counts, n / 4 of them.
void derive_trace(std::span<const TaskId> priority, std::span<const Time> actual,
                  const Schedule& schedule, Time latest, MonotonicArena& arena,
                  std::span<DispatchEvent> events) {
  const std::size_t n = priority.size();
  const std::size_t buckets = std::max<std::size_t>(1, n / 4);
  const TimeBuckets bucket_of(0.0, latest, buckets);
  const Time* const start = schedule.start.data();
  const MachineId* const machine_of = schedule.assignment.machine_of.data();
  const std::span<std::uint32_t> next = arena.make_span<std::uint32_t>(buckets, 0);
  for (std::size_t j = 0; j < n; ++j) ++next[bucket_of(start[j])];
  std::exclusive_scan(next.begin(), next.end(), next.begin(), std::uint32_t{0});
  for (std::size_t r = 0; r < n; ++r) {
    if (r + kPrefetchAhead < n) {
      const TaskId ahead = priority[r + kPrefetchAhead];
      prefetch(&start[ahead]);
      prefetch(&machine_of[ahead]);
      prefetch(&actual[ahead]);
    }
    const TaskId j = priority[r];
    events[next[bucket_of(start[j])]++] =
        DispatchEvent{start[j], j, machine_of[j], actual[j]};
  }
  // next[b] is now the end of bucket b.
  sort_within_buckets(events, std::span<const std::uint32_t>(next),
                      [](const DispatchEvent& a, const DispatchEvent& b) {
                        return a.when < b.when ||
                               (a.when == b.when && a.machine < b.machine);
                      });
}

}  // namespace

bool dispatch_drain_by_shape(const char* who, const Instance& instance,
                             const Placement& placement, const Realization& actual,
                             const std::vector<TaskId>& priority, SimWorkspace& ws,
                             Schedule& schedule, DispatchTrace* trace) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  const std::uint32_t num_sets = placement.num_distinct_sets();
  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;
  // Disjoint sets hold at most m machines in all, so an overlap shows
  // within the first m + 1 machines visited.
  const std::span<std::uint8_t> taken =
      arena.make_span<std::uint8_t>(placement.num_machines(), 0);
  for (std::uint32_t q = 0; q < num_sets; ++q) {
    for (const MachineId i : placement.distinct_set(q)) {
      if (taken[i] != 0) return false;
      taken[i] = 1;
    }
  }
  // run_dispatch_kernel's checks, in its order and with its messages.
  if (placement.num_tasks() != n) reject(who, "placement size mismatch");
  if (placement.num_machines() != m) {
    reject(who, "placement built for a different machine count");
  }
  if (actual.size() != n) reject(who, "realization size mismatch");
  if (priority.size() != n) reject(who, "priority must cover every task");

  schedule.assignment.machine_of.assign(n, kNoMachine);
  schedule.start.resize(n);
  schedule.finish.resize(n);
  if (trace != nullptr) trace->events.clear();
  if (n == 0) return true;

  SetTree* const sets = arena.allocate<SetTree>(num_sets);
  for (std::uint32_t q = 0; q < num_sets; ++q) {
    const std::vector<MachineId>& machines = placement.distinct_set(q);
    const std::size_t nodes = WinnerTree::nodes(machines.size());
    ::new (static_cast<void*>(sets + q))
        SetTree{WinnerTree(machines.size(), {}, arena.allocate<Time>(nodes),
                           arena.allocate<MachineId>(nodes)),
                machines.data()};
  }
  const std::span<const std::uint32_t> set_ids = placement.set_ids();
  if (num_sets == 1) {
    if (trace != nullptr) trace->events.reserve(n);
    (void)list_schedule_sets<true>(who, priority, actual.actual, set_ids, sets, schedule,
                                   trace != nullptr ? &trace->events : nullptr);
    return true;
  }
  const Time latest = list_schedule_sets<false>(who, priority, actual.actual, set_ids,
                                                sets, schedule, nullptr);
  if (trace == nullptr) return true;
  trace->events.resize(n);
  derive_trace(priority, actual.actual, schedule, latest, arena, trace->events);
  return true;
}

}  // namespace rdp
