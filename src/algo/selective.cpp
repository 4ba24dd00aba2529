#include "algo/selective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "algo/lpt.hpp"
#include "core/instance.hpp"

namespace rdp {

namespace {

std::vector<MachineId> all_machines(MachineId m) {
  std::vector<MachineId> all(m);
  for (MachineId i = 0; i < m; ++i) all[i] = i;
  return all;
}

}  // namespace

CriticalTasksPlacement::CriticalTasksPlacement(double critical_fraction)
    : fraction_(critical_fraction) {
  if (fraction_ < 0.0 || fraction_ > 1.0) {
    throw std::invalid_argument(
        "CriticalTasksPlacement: fraction must be in [0, 1]");
  }
}

Placement CriticalTasksPlacement::place(const Instance& instance) const {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  const auto estimates = instance.estimates();
  const std::vector<TaskId> by_size = lpt_order(estimates);

  std::size_t num_critical = 0;
  if (fraction_ > 0.0 && n > 0) {
    num_critical = static_cast<std::size_t>(
        std::ceil(fraction_ * static_cast<double>(n)));
    num_critical = std::min(num_critical, n);
  }

  std::vector<bool> critical(n, false);
  for (std::size_t r = 0; r < num_critical; ++r) critical[by_size[r]] = true;

  // Pin the non-critical tasks with LPT *on the full task set* so the
  // pinned loads anticipate that critical tasks will flow online: we
  // schedule everything with LPT but only keep the assignment for the
  // pinned tasks.
  const GreedyScheduleResult lpt = list_schedule(estimates, m, by_size);

  std::vector<std::vector<MachineId>> sets(n);
  const std::vector<MachineId> everywhere = all_machines(m);
  for (TaskId j = 0; j < n; ++j) {
    if (critical[j]) {
      sets[j] = everywhere;
    } else {
      sets[j] = {lpt.assignment[j]};
    }
  }
  return Placement(std::move(sets), m);
}

std::string CriticalTasksPlacement::name() const {
  return "critical-tasks(f=" + std::to_string(fraction_) + ")";
}

MemoryBudgetPlacement::MemoryBudgetPlacement(double extra_memory_budget)
    : budget_(extra_memory_budget) {
  if (budget_ < 0.0) {
    throw std::invalid_argument("MemoryBudgetPlacement: budget must be >= 0");
  }
}

Placement MemoryBudgetPlacement::place(const Instance& instance) const {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  const auto estimates = instance.estimates();
  const std::vector<TaskId> by_size = lpt_order(estimates);
  const GreedyScheduleResult lpt = list_schedule(estimates, m, by_size);

  std::vector<std::vector<MachineId>> sets(n);
  for (TaskId j = 0; j < n; ++j) sets[j] = {lpt.assignment[j]};

  // Spend the extra-replica budget on the longest tasks first: they are
  // the ones whose misprediction costs the most.
  double remaining = budget_;
  const std::vector<MachineId> everywhere = all_machines(m);
  for (TaskId j : by_size) {
    const double widen_cost = instance.size(j) * static_cast<double>(m - 1);
    if (widen_cost <= 0.0) {
      sets[j] = everywhere;  // free to replicate
      continue;
    }
    if (widen_cost <= remaining) {
      sets[j] = everywhere;
      remaining -= widen_cost;
    }
  }
  return Placement(std::move(sets), m);
}

std::string MemoryBudgetPlacement::name() const {
  return "memory-budget(b=" + std::to_string(budget_) + ")";
}

TwoPhaseStrategy make_critical_tasks(double critical_fraction) {
  return TwoPhaseStrategy(
      std::make_shared<CriticalTasksPlacement>(critical_fraction),
      PriorityRule::kLongestEstimateFirst,
      "CriticalTasks(f=" + std::to_string(critical_fraction) + ")");
}

TwoPhaseStrategy make_memory_budget(double extra_memory_budget) {
  return TwoPhaseStrategy(
      std::make_shared<MemoryBudgetPlacement>(extra_memory_budget),
      PriorityRule::kLongestEstimateFirst,
      "MemoryBudget(b=" + std::to_string(extra_memory_budget) + ")");
}

}  // namespace rdp
