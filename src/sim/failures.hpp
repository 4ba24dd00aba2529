// Fail-stop machine failures -- the other reason systems replicate data
// (the paper's Hadoop motivation). This extends the semi-clairvoyant
// dispatcher with permanent machine failures at known-only-when-they-
// happen times:
//
//  * a task running on a machine when it fails is lost and must restart
//    from scratch on another machine holding its data;
//  * queued tasks of a failed machine flow to surviving replicas;
//  * a task whose every replica machine has failed must first re-fetch
//    its data from stable storage: it becomes runnable anywhere after a
//    per-task transfer penalty is added to its processing time.
//
// Placement determines how gracefully the schedule degrades -- which is
// exactly what the fault-tolerance bench measures across strategies.
#pragma once

#include <cstdint>
#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
struct Realization;
class SimWorkspace;

/// A permanent fail-stop event.
struct MachineFailure {
  MachineId machine = 0;
  Time when = 0;
};

struct FailurePlan {
  std::vector<MachineFailure> failures;  ///< at most one per machine
  /// Added to a task's processing time when it must re-fetch data
  /// because every replica machine failed.
  Time refetch_penalty = 0;
};

struct FailureDispatchResult {
  Schedule schedule;        ///< final (successful) run of every task
  DispatchTrace trace;      ///< every dispatch, including lost attempts
  std::size_t restarts = 0; ///< dispatches that were killed by a failure
  std::size_t refetches = 0;///< tasks that lost every replica
  Time makespan = 0;
  /// Simulation events processed (finishes + failures + machine-free
  /// wakeups); the throughput bench divides by wall time. A free run at
  /// its finish without a queue round trip counts like a popped one, so
  /// the count does not depend on that shortcut; the last task's free is
  /// never processed and never counted.
  std::uint64_t events_processed = 0;
};

/// Runs the failure-aware semi-clairvoyant dispatch. Priority semantics
/// match dispatch_online(); restarted tasks re-enter with their original
/// priority. Throws std::invalid_argument if all machines fail while
/// refetch_penalty makes recovery impossible (it never does -- refetched
/// tasks may run on failed-set-free machines; if *every* machine fails
/// the instance is infeasible and an exception is raised).
[[nodiscard]] FailureDispatchResult dispatch_with_failures(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const FailurePlan& plan);

/// Workspace form: per-run state lives in `ws` and the result is written
/// into `out` reusing its capacity, so repeated calls on one thread reach
/// zero steady-state allocation. The by-value overload wraps this with
/// the per-thread workspace.
void dispatch_with_failures(const Instance& instance, const Placement& placement,
                            const Realization& actual,
                            const std::vector<TaskId>& priority,
                            const FailurePlan& plan, SimWorkspace& ws,
                            FailureDispatchResult& out);

}  // namespace rdp
