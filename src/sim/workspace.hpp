// Reusable per-run state for the simulator hot path. A SimWorkspace owns
// the arena that backs every struct-of-arrays hot field (task state,
// ranks, start/finish times, assignments, replica-set queues) plus the
// event heap and the failure loop's overflow heaps, so a sweep that
// reuses one workspace per worker thread performs zero steady-state
// allocation: the first trial at a given (n, m) sizes everything, later
// trials only rewind cursors and clear vectors in place.
//
// Lifetimes: arena spans live until the next `begin_run()`; the dispatch
// results returned to callers are ordinary vectors (copied out of the SoA
// arrays at the end of a run) so nothing user-visible aliases the arena.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/arena.hpp"

namespace rdp {

/// One POD event, shared by every event-driven dispatcher. `kind` values
/// are ordered so the comparator resolves equal-time ties as finishes
/// before failures before frees.
struct SimEvent {
  Time when = 0;
  std::uint8_t kind = 0;        ///< SimEventKind, stored small
  MachineId machine = kNoMachine;
  TaskId task = kNoTask;
  std::uint64_t aux = 0;        ///< finish: attempt epoch or copy index
  std::uint64_t seq = 0;        ///< FIFO tie-break, monotone per run
};

enum : std::uint8_t {
  kSimEventFinish = 0,   ///< processed first at equal times
  kSimEventFailure = 1,
  kSimEventFree = 2,
};

/// "a pops before b". Equal-time frees order by machine id (simultaneously
/// freed machines grab work in id order, matching ReadyHeap's
/// tie-break); everything else falls back to insertion sequence, so the
/// order is strict and total and the pop sequence is fully determined.
struct SimEventBefore {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    if (a.when != b.when) return a.when < b.when;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.kind == kSimEventFree && a.machine != b.machine) {
      return a.machine < b.machine;
    }
    return a.seq < b.seq;
  }
};

/// The failure and speculative loops' event queue: a binary min-heap (per
/// SimEventBefore) over one vector. The loops hold about one pending event
/// per machine plus the planned failures, so a sift is a few levels deep.
class SimEventQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  void push(const SimEvent& event) {
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// The SimEventBefore-minimum, i.e. what the next pop() returns.
  [[nodiscard]] const SimEvent& top() const noexcept {
    assert(!heap_.empty());
    return heap_.front();
  }

  /// Removes and returns the SimEventBefore-minimum.
  SimEvent pop() {
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const SimEvent out = heap_.back();
    heap_.pop_back();
    return out;
  }

  /// Drops every event but keeps the capacity (workspace reuse).
  void reset() noexcept { heap_.clear(); }

 private:
  /// std::push_heap keeps the *largest* element at the front, so the
  /// comparator is SimEventBefore inverted.
  struct After {
    bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
      return SimEventBefore{}(b, a);
    }
  };

  std::vector<SimEvent> heap_;
};

/// (priority rank, task) entry of the failure loop's overflow heaps;
/// min-heap order on rank (ranks are a permutation, so ties are
/// impossible and the order is total).
using RankedTask = std::pair<std::uint32_t, TaskId>;

class SimWorkspace {
 public:
  SimWorkspace() = default;
  SimWorkspace(const SimWorkspace&) = delete;
  SimWorkspace& operator=(const SimWorkspace&) = delete;

  /// Rewinds the arena and clears every container in place. Called by the
  /// dispatchers at run start; invalidates spans from the previous run.
  void begin_run(std::size_t num_tasks, MachineId num_machines);

  MonotonicArena arena;
  SimEventQueue events;

  /// dispatch_with_failures' per-machine overflow heaps (vector heaps
  /// driven by std::push_heap / std::pop_heap). Only restarted and
  /// refetched tasks go here; every other waiting task is served from the
  /// replica-set queues. Sized to the largest m seen; inner capacity sticks.
  std::vector<std::vector<RankedTask>> machine_heaps;
};

/// The calling thread's lazily-created workspace. The by-value dispatcher
/// entry points route through this, so even callers that never handle a
/// workspace explicitly get cross-call state reuse on each thread.
[[nodiscard]] SimWorkspace& thread_workspace();

}  // namespace rdp
