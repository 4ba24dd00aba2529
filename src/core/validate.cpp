#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/instance.hpp"
#include "core/order.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"

namespace rdp {

namespace {
constexpr double kTimeTolerance = 1e-9;

bool nearly_equal(Time a, Time b) {
  const Time scale = std::max({std::abs(a), std::abs(b), Time{1}});
  return std::abs(a - b) <= kTimeTolerance * scale;
}
}  // namespace

std::string check_placement(const Instance& instance, const Placement& placement) {
  std::ostringstream os;
  if (placement.num_tasks() != instance.num_tasks()) {
    os << "placement has " << placement.num_tasks() << " sets, instance has "
       << instance.num_tasks() << " tasks";
    return os.str();
  }
  if (placement.num_machines() != instance.num_machines()) {
    os << "placement built for m=" << placement.num_machines() << ", instance has m="
       << instance.num_machines();
    return os.str();
  }
  // Placement's constructors already reject empty sets and machine ids
  // >= its m, so once m matches, every task's set is valid.
  return {};
}

std::string check_assignment(const Instance& instance, const Placement& placement,
                             const Assignment& assignment) {
  std::ostringstream os;
  if (auto d = check_placement(instance, placement); !d.empty()) return d;
  if (assignment.num_tasks() != instance.num_tasks()) {
    os << "assignment covers " << assignment.num_tasks() << " tasks, expected "
       << instance.num_tasks();
    return os.str();
  }
  for (TaskId j = 0; j < assignment.num_tasks(); ++j) {
    const MachineId i = assignment[j];
    if (i == kNoMachine) {
      os << "task " << j << " is unassigned";
      return os.str();
    }
    if (!placement.allows(j, i)) {
      os << "task " << j << " assigned to machine " << i
         << " which holds no replica of its data";
      return os.str();
    }
  }
  return {};
}

std::string check_realization(const Instance& instance, const Realization& realization) {
  std::ostringstream os;
  if (realization.size() != instance.num_tasks()) {
    os << "realization covers " << realization.size() << " tasks, expected "
       << instance.num_tasks();
    return os.str();
  }
  if (!respects_uncertainty(instance, realization)) {
    os << "realization violates the alpha=" << instance.alpha() << " band";
    return os.str();
  }
  return {};
}

std::string check_schedule(const Instance& instance, const Realization& realization,
                           const Schedule& schedule, bool require_no_idle) {
  std::ostringstream os;
  if (schedule.num_tasks() != instance.num_tasks() ||
      schedule.start.size() != instance.num_tasks() ||
      schedule.finish.size() != instance.num_tasks()) {
    return "schedule arrays do not match the instance size";
  }
  for (TaskId j = 0; j < schedule.num_tasks(); ++j) {
    if (schedule.start[j] < -kTimeTolerance) {
      os << "task " << j << " starts before time 0";
      return os.str();
    }
    if (!nearly_equal(schedule.finish[j], schedule.start[j] + realization[j])) {
      os << "task " << j << " finish != start + actual";
      return os.str();
    }
  }
  // Per-machine overlap / idle check, tasks in (start, id) order.
  const auto per_machine = schedule.assignment.tasks_per_machine(
      instance.num_machines(), order_by_time(schedule.start, SortDirection::kAscending));
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    const std::vector<TaskId>& tasks = per_machine[i];
    Time cursor = 0;
    for (TaskId j : tasks) {
      if (schedule.start[j] < cursor - kTimeTolerance) {
        os << "machine " << i << ": task " << j << " overlaps its predecessor";
        return os.str();
      }
      if (require_no_idle && !nearly_equal(schedule.start[j], cursor)) {
        os << "machine " << i << ": idle gap before task " << j;
        return os.str();
      }
      cursor = schedule.finish[j];
    }
  }
  return {};
}

void throw_if_invalid(const std::string& diagnostic) {
  if (!diagnostic.empty()) {
    throw std::invalid_argument(diagnostic);
  }
}

}  // namespace rdp
