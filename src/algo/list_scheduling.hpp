// Graham's List Scheduling kernel (offline form): take tasks one at a time
// in a given order and put each on the currently least-loaded machine.
// This is the building block of every phase-1 policy in the library.
#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"

namespace rdp {

/// Result of an offline greedy schedule over a weight vector.
struct GreedyScheduleResult {
  Assignment assignment;    ///< task -> machine
  std::vector<Time> loads;  ///< final per-machine load
  Time makespan = 0;        ///< max load
};

/// List Scheduling in input order (task 0 first). Ties between equally
/// loaded machines break toward the smallest machine id, which makes the
/// kernel fully deterministic.
[[nodiscard]] GreedyScheduleResult list_schedule(std::span<const Time> weights,
                                                 MachineId num_machines);

/// List Scheduling in an explicit order (a permutation of task ids).
/// `order` may be a prefix (only those tasks get assigned; the rest stay
/// kNoMachine and contribute no load).
[[nodiscard]] GreedyScheduleResult list_schedule(std::span<const Time> weights,
                                                 MachineId num_machines,
                                                 std::span<const TaskId> order);

}  // namespace rdp
