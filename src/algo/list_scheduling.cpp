#include "algo/list_scheduling.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/prefetch.hpp"
#include "core/winner_tree.hpp"

namespace rdp {

namespace {

// An LPT order visits the weights and the assignment at random. Asking
// for a task's entries this many tasks ahead overlaps those cache misses
// with the tree walks in between.
constexpr std::size_t kPrefetchAhead = 16;

GreedyScheduleResult greedy_over(std::span<const Time> weights, MachineId m,
                                 std::span<const TaskId> order) {
  if (m == 0) throw std::invalid_argument("list_schedule: need at least one machine");

  GreedyScheduleResult result;
  result.assignment = Assignment(weights.size());
  result.loads.assign(m, 0);

  std::vector<Time> tree_load(WinnerTree::nodes(m));
  std::vector<MachineId> tree_id(tree_load.size());
  WinnerTree tree(m, result.loads, tree_load.data(), tree_id.data());
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k + kPrefetchAhead < order.size()) {
      if (const TaskId ahead = order[k + kPrefetchAhead]; ahead < weights.size()) {
        prefetch(&weights[ahead]);
        prefetch(&result.assignment.machine_of[ahead]);
      }
    }
    const TaskId j = order[k];
    if (j >= weights.size()) {
      throw std::out_of_range("list_schedule: task id out of range");
    }
    if (result.assignment[j] != kNoMachine) {
      throw std::invalid_argument("list_schedule: duplicate task in order");
    }
    const MachineId i = tree.min_id();
    result.assignment.machine_of[j] = i;
    result.loads[i] = tree.add_to_min(weights[j]);
  }
  result.makespan =
      result.loads.empty() ? 0 : *std::max_element(result.loads.begin(), result.loads.end());
  return result;
}

}  // namespace

GreedyScheduleResult list_schedule(std::span<const Time> weights,
                                   MachineId num_machines) {
  std::vector<TaskId> order(weights.size());
  for (TaskId j = 0; j < weights.size(); ++j) order[j] = j;
  return greedy_over(weights, num_machines, order);
}

GreedyScheduleResult list_schedule(std::span<const Time> weights, MachineId num_machines,
                                   std::span<const TaskId> order) {
  return greedy_over(weights, num_machines, order);
}

}  // namespace rdp
