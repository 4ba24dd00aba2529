// Phase-2 output: which machine each task ran on and when. An Assignment
// carries only the task->machine map (enough for makespan / memory); a
// Schedule additionally carries start/finish times produced by the
// online dispatcher.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;
struct Realization;

/// Task -> machine map. `machine_of[j] == kNoMachine` means unassigned.
struct Assignment {
  std::vector<MachineId> machine_of;

  Assignment() = default;
  explicit Assignment(std::size_t num_tasks)
      : machine_of(num_tasks, kNoMachine) {}

  [[nodiscard]] std::size_t num_tasks() const noexcept { return machine_of.size(); }
  [[nodiscard]] MachineId operator[](TaskId j) const { return machine_of.at(j); }
  [[nodiscard]] bool complete() const noexcept;

  /// Task ids grouped by machine (the sets E_i), each in `order` (empty = by id).
  [[nodiscard]] std::vector<std::vector<TaskId>> tasks_per_machine(
      MachineId num_machines, std::span<const TaskId> order = {}) const;
};

/// A fully timed schedule. Invariants (checked by core/validate.hpp):
/// finish[j] == start[j] + actual[j]; tasks on one machine do not overlap.
struct Schedule {
  Assignment assignment;
  std::vector<Time> start;   ///< dispatch time of each task
  std::vector<Time> finish;  ///< completion time of each task

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return assignment.num_tasks();
  }

  /// Completion time of the last task, i.e. C_max. 0 when empty.
  [[nodiscard]] Time makespan() const noexcept;
};

/// Builds a timed Schedule by running each machine's tasks back-to-back in
/// the order given by ascending TaskId (sufficient whenever only loads
/// matter, e.g. for static phase-1-only strategies).
[[nodiscard]] Schedule sequence_assignment(const Assignment& assignment,
                                           const Realization& actual,
                                           MachineId num_machines);

}  // namespace rdp
