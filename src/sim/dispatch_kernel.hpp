// The phase-2 ReadyHeap loop shared by dispatch_online and serve_stream.
//
// Whenever a machine is idle it takes the highest-priority *released*
// task whose replica set contains it, or parks until a release makes one
// eligible. Offline dispatch is the drain mode of this loop: every task
// released at t = 0 (dispatch_online serves disjoint replica sets on
// idle unit-speed machines by its shape path, sim/shape_dispatch.hpp).
// Decisions never look at actual durations -- releases and machine frees
// are the only sources of "now".
//
// Layout: replica-set queues are priority-sorted CSR slices
// (sim/set_queues.hpp); admission flips a bit in a hierarchical bitmap
// over each queue's rank slots (find-first-set replaces a head pointer);
// releases come from a sorted cursor; a (ready, id) binary heap holds
// busy machines (sim/ready_heap.hpp). Once every task is released the
// surviving bits are compacted into dense per-queue lists and the tail
// runs on plain head pointers; a cohort released in one instant (drain
// mode among them) skips the bitmaps entirely. An arrival that wakes a
// parked machine certain to take it starts there at admission (a direct
// start), with no bitmap bit and no heap round trip. All per-run state
// comes from the SimWorkspace arena. Equal-time ordering: every release at t
// is admitted before any machine freed at t dispatches, and machines
// freed at the same instant grab work in machine-id order.
//
// The loop publishes nothing: each caller emits its own span, metrics and
// timeline events from the result.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;
class Placement;
struct Realization;
struct Schedule;
struct DispatchTrace;
class SimWorkspace;

/// What the loop counted on the way.
struct DispatchKernelStats {
  std::size_t peak_backlog = 0;  ///< most released-but-unstarted tasks
  std::size_t wakes = 0;         ///< parked machines woken by a release
  std::size_t parks = 0;         ///< idle machines parked to wait for one
  /// Wakes whose task started at admission, skipping the pool round trip
  /// (at most one per admission burst; always 0 in drain mode).
  std::size_t direct_starts = 0;
};

/// Runs the loop until every task is served, writing the task-indexed
/// schedule and the chronological trace (n events) into `schedule` and
/// `*trace`, reusing their capacity. A null `trace` keeps the events in
/// workspace scratch and returns the schedule alone.
///
/// \param who       names the caller in every error message.
/// \param arrivals  one release time per task (finite, >= 0; equal times
///                  are admitted in task-id order), or empty for drain
///                  mode: every task released at t = 0. Any other size is
///                  the caller's bug.
/// Other parameters as in dispatch_online. Throws std::invalid_argument on
/// malformed input.
DispatchKernelStats run_dispatch_kernel(
    const char* who, const Instance& instance, const Placement& placement,
    const Realization& actual, const std::vector<TaskId>& priority,
    std::span<const Time> arrivals, std::span<const Time> initial_ready,
    std::span<const double> speeds, SimWorkspace& ws, Schedule& schedule,
    DispatchTrace* trace);

}  // namespace rdp
