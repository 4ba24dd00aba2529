#include "core/schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/realization.hpp"
#include "core/scan.hpp"

namespace rdp {

bool Assignment::complete() const noexcept {
  return std::all_of(machine_of.begin(), machine_of.end(),
                     [](MachineId i) { return i != kNoMachine; });
}

std::vector<std::vector<TaskId>> Assignment::tasks_per_machine(
    MachineId num_machines, std::span<const TaskId> order) const {
  std::vector<std::vector<TaskId>> out(num_machines);
  for (TaskId k = 0; k < machine_of.size(); ++k) {
    const TaskId j = order.empty() ? k : order[k];
    const MachineId i = machine_of[j];
    if (i == kNoMachine) continue;
    if (i >= num_machines) {
      throw std::out_of_range("Assignment: machine id out of range");
    }
    out[i].push_back(j);
  }
  return out;
}

Time Schedule::makespan() const noexcept { return max_scan(finish); }

Schedule sequence_assignment(const Assignment& assignment, const Realization& actual,
                             MachineId num_machines) {
  if (assignment.num_tasks() != actual.size()) {
    throw std::invalid_argument(
        "sequence_assignment: assignment/realization size mismatch");
  }
  Schedule s;
  s.assignment = assignment;
  s.start.assign(assignment.num_tasks(), 0);
  s.finish.assign(assignment.num_tasks(), 0);
  std::vector<Time> ready(num_machines, 0);
  for (TaskId j = 0; j < assignment.num_tasks(); ++j) {
    const MachineId i = assignment[j];
    if (i == kNoMachine) {
      throw std::invalid_argument("sequence_assignment: unassigned task");
    }
    if (i >= num_machines) {
      throw std::out_of_range("sequence_assignment: machine id out of range");
    }
    s.start[j] = ready[i];
    s.finish[j] = ready[i] + actual[j];
    ready[i] = s.finish[j];
  }
  return s;
}

}  // namespace rdp
