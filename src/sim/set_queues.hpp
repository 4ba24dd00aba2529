// Replica-set queues: the task layout shared by every offline phase-2
// loop (online, failures, speculative, transfers) and serve_stream. Tasks
// with identical replica sets are interchangeable to an idle machine, so
// they share one queue per distinct set (interned by Placement at
// construction): a rank-sorted CSR slice, plus a machine -> sets CSR. A
// machine's best eligible task is then the lowest-rank front among its
// few sets, and no per-machine structure holds n·k task entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "core/placement.hpp"
#include "core/types.hpp"
#include "sim/arena.hpp"

namespace rdp {

struct SetQueues {
  static constexpr std::uint32_t kNone = UINT32_MAX;

  std::uint32_t count = 0;                    ///< distinct replica sets
  std::span<std::uint32_t> begin;             ///< slice offsets, count + 1
  std::span<std::uint32_t> head;              ///< per set, next unconsumed slot
  std::span<TaskId> tasks;                    ///< n, each slice rank-sorted
  /// Rank per slot. Empty when every machine serves at most one set
  /// (disjoint replica sets, the group-replication regime): a machine's
  /// next task is then its sole set's front, with no rank comparison.
  std::span<std::uint32_t> ranks;
  std::span<std::uint32_t> machine_begin;     ///< m + 1 offsets
  std::span<std::uint32_t> machine_queues;    ///< sets holding each machine
  std::span<std::uint32_t> machine_queue_of;  ///< first set per machine, or kNone
  bool single_queue_machines = false;

  /// Carves the queues out of `arena` and fills them in one pass over
  /// `priority`, which doubles as the permutation check. The same pass
  /// validates every duration in `actual`: a NaN would also break the
  /// strict order the loops' event heaps rely on. Both throw
  /// std::invalid_argument naming `who`; the caller has checked that
  /// priority, actual and placement cover the same tasks. Filling in
  /// priority order leaves every slice rank-sorted without a comparison
  /// sort. `on_fill(slot, task, rank, duration)` runs as each task is
  /// placed, so callers fill slot-indexed companions in the same pass.
  template <typename OnFill>
  void build(MonotonicArena& arena, const Placement& placement,
             std::span<const TaskId> priority, std::span<const Time> actual,
             const char* who, OnFill&& on_fill) {
    const std::size_t n = priority.size();
    const MachineId m = placement.num_machines();
    count = placement.num_distinct_sets();
    begin = arena.allocate_span<std::uint32_t>(count + 1);
    head = arena.allocate_span<std::uint32_t>(count);
    const std::span<std::uint32_t> degree = arena.make_span<std::uint32_t>(m, 0);
    std::uint32_t max_degree = 0;
    begin[0] = 0;
    for (std::uint32_t q = 0; q < count; ++q) {
      begin[q + 1] = begin[q] + placement.set_population(q);
      head[q] = begin[q];  // the fill cursor until the fill is done
      for (MachineId i : placement.distinct_set(q)) {
        max_degree = std::max(max_degree, ++degree[i]);
      }
    }
    single_queue_machines = max_degree <= 1;
    machine_begin = arena.allocate_span<std::uint32_t>(m + 1);
    machine_begin[0] = 0;
    for (MachineId i = 0; i < m; ++i) {
      machine_begin[i + 1] = machine_begin[i] + degree[i];
      degree[i] = machine_begin[i];  // the fill cursor from here on
    }
    machine_queues = arena.allocate_span<std::uint32_t>(machine_begin[m]);
    for (std::uint32_t q = 0; q < count; ++q) {
      for (MachineId i : placement.distinct_set(q)) machine_queues[degree[i]++] = q;
    }
    machine_queue_of = arena.allocate_span<std::uint32_t>(m);
    for (MachineId i = 0; i < m; ++i) {
      machine_queue_of[i] = machine_begin[i] < machine_begin[i + 1]
                                ? machine_queues[machine_begin[i]]
                                : kNone;
    }
    // Permutation check by a seen-bitset: n bits, not an n-word rank array.
    const std::span<std::uint64_t> seen =
        arena.make_span<std::uint64_t>((n + 63) / 64, 0);
    tasks = arena.allocate_span<TaskId>(n);
    if (!single_queue_machines) ranks = arena.allocate_span<std::uint32_t>(n);
    const std::span<const std::uint32_t> set_ids = placement.set_ids();
    for (std::uint32_t r = 0; r < n; ++r) {
      const TaskId j = priority[r];
      if (j >= n || ((seen[j / 64] >> (j % 64)) & 1u) != 0) {
        throw std::invalid_argument(std::string(who) + ": priority is not a permutation");
      }
      seen[j / 64] |= std::uint64_t{1} << (j % 64);
      const std::uint32_t pos = head[set_ids[j]]++;
      tasks[pos] = j;
      if (!single_queue_machines) ranks[pos] = r;
      const Time d = actual[j];
      if (!(d >= 0.0 && d <= std::numeric_limits<Time>::max())) reject_duration(who);
      on_fill(pos, j, r, d);
    }
    for (std::uint32_t q = 0; q < count; ++q) head[q] = begin[q];
  }

  void build(MonotonicArena& arena, const Placement& placement,
             std::span<const TaskId> priority, std::span<const Time> actual,
             const char* who) {
    build(arena, placement, priority, actual, who,
          [](std::uint32_t, TaskId, std::uint32_t, Time) {});
  }

  /// The set whose front is machine i's best-ranked eligible task, or
  /// kNone when all its sets are exhausted. Fronts for which `skip(task)`
  /// holds are consumed first: the lazy removal of tasks that left their
  /// queue some other way (the transfer loop's remote runs).
  template <typename Skip>
  [[nodiscard]] std::uint32_t best_queue(MachineId i, Skip&& skip) {
    const auto live = [&](std::uint32_t q) {
      while (head[q] < begin[q + 1] && skip(tasks[head[q]])) ++head[q];
      return head[q] < begin[q + 1];
    };
    if (single_queue_machines) {
      const std::uint32_t q = machine_queue_of[i];
      return q != kNone && live(q) ? q : kNone;
    }
    std::uint32_t best = kNone;
    for (std::uint32_t k = machine_begin[i]; k < machine_begin[i + 1]; ++k) {
      const std::uint32_t q = machine_queues[k];
      if (live(q) && (best == kNone || ranks[head[q]] < ranks[head[best]])) best = q;
    }
    return best;
  }

  /// best_queue for loops whose tasks only ever leave a queue at its front.
  [[nodiscard]] std::uint32_t best_queue(MachineId i) {
    return best_queue(i, [](TaskId) { return false; });
  }

  /// Out of line, so build()'s fill loop keeps only a compare and a
  /// branch per duration.
  [[noreturn, gnu::cold, gnu::noinline]] static void reject_duration(const char* who) {
    throw std::invalid_argument(std::string(who) +
                                ": actual durations must be finite and non-negative");
  }

  /// Removes and returns set q's front task.
  TaskId pop(std::uint32_t q) noexcept { return tasks[head[q]++]; }
};

}  // namespace rdp
