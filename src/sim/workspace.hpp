// Reusable per-run state for the simulator hot path. A SimWorkspace owns
// the arena that backs every struct-of-arrays hot field (task state,
// ranks, start/finish times, assignments, replica-set queues) plus the
// calendar event queue and the failure loop's overflow heaps, so a sweep that
// reuses one workspace per worker thread performs zero steady-state
// allocation: the first trial at a given (n, m) sizes everything, later
// trials only rewind cursors and clear vectors in place.
//
// Lifetimes: arena spans live until the next `begin_run()`; the dispatch
// results returned to callers are ordinary vectors (copied out of the SoA
// arrays at the end of a run) so nothing user-visible aliases the arena.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/arena.hpp"
#include "sim/calendar_queue.hpp"

namespace rdp {

/// One POD event, shared by every event-driven dispatcher. `kind` values
/// are ordered so the comparator resolves equal-time ties the same way
/// the retired binary heaps did: finishes before failures before frees.
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

struct SimEventTime {
  Time operator()(const SimEvent& e) const noexcept { return e.when; }
};

/// "a pops before b". Equal-time frees order by machine id (simultaneously
/// freed machines grab work in id order, matching ReadyHeap's
/// tie-break); everything else falls back to insertion sequence.
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

using SimEventQueue = CalendarQueue<SimEvent, SimEventTime, SimEventBefore>;

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

  /// dispatch_speculative's machines idle with no eligible work, woken by
  /// the next completion.
  std::vector<MachineId> parked;
};

/// The calling thread's lazily-created workspace. The by-value dispatcher
/// entry points route through this, so even callers that never handle a
/// workspace explicitly get cross-call state reuse on each thread.
[[nodiscard]] SimWorkspace& thread_workspace();

}  // namespace rdp
