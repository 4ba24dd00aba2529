// Drain-mode phase 2 by placement shape.
//
// The paper's three strategies place every task on one of a few disjoint
// replica sets: singletons (LPT-NoChoice), k groups (LS-Group(k)) or one
// set of all m machines (LPT-NoRestriction). When every task is released
// at t = 0, speeds are unit and every machine starts idle, a machine of
// set S only ever takes S's tasks, so dispatch is Graham list scheduling
// inside each set in priority order: the next task of S goes to S's
// (ready, id)-least machine. One winner tree per set (core/winner_tree)
// answers that, with no replica-set queues and no machine heap.
//
// The chronological trace is then a function of the schedule (see
// sim/trace.hpp) and is derived from it after the walk, only when the
// caller asks for one: with one set the walk already visits it in order;
// otherwise a bucket pass over the start times sorts the tasks, taken in
// priority order, stably by (start, machine).
#pragma once

#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;
class Placement;
struct Realization;
struct Schedule;
struct DispatchTrace;
class SimWorkspace;

/// Serves a drain-mode dispatch with unit speeds and every machine idle
/// at t = 0 (the caller's side of the contract) when every machine is in
/// at most one distinct replica set, and returns true. It writes exactly
/// what run_dispatch_kernel writes for the same call -- schedule, trace
/// and every std::invalid_argument message, naming `who`; a null `trace`
/// skips the trace. Returns false, having written nothing to `schedule`
/// or `trace`, when sets overlap.
bool dispatch_drain_by_shape(const char* who, const Instance& instance,
                             const Placement& placement, const Realization& actual,
                             const std::vector<TaskId>& priority, SimWorkspace& ws,
                             Schedule& schedule, DispatchTrace* trace);

}  // namespace rdp
