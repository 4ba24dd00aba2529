#include "algo/list_scheduling.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/prefetch.hpp"

namespace rdp {

namespace {

// Winner tree over machine loads: `bit_ceil(m)` leaves, padded with +inf,
// and every internal node holding the load and id of its subtree's
// least-loaded machine. A tie keeps the left child, whose ids are all
// smaller, so the root is the lexicographic (load, id) minimum -- the
// machine a (load, id) min-heap would pop. Padding ids are >= m and sit
// right of every real leaf, so a real machine wins any tie with them.
class WinnerTree {
 public:
  explicit WinnerTree(std::span<const Time> loads)
      : leaves_(std::bit_ceil(loads.size())),
        load_(2 * leaves_, std::numeric_limits<Time>::infinity()),
        id_(2 * leaves_) {
    for (std::size_t i = 0; i < leaves_; ++i) id_[leaves_ + i] = static_cast<MachineId>(i);
    std::copy(loads.begin(), loads.end(), load_.begin() + static_cast<std::ptrdiff_t>(leaves_));
    for (std::size_t node = leaves_ - 1; node >= 1; --node) play(node);
  }

  [[nodiscard]] MachineId min_id() const noexcept { return id_[1]; }

  /// Adds `w` to the root's machine, replays its leaf-to-root path and
  /// returns the machine's new load.
  Time add_to_min(Time w) noexcept {
    std::size_t node = leaves_ + id_[1];
    load_[node] += w;
    const Time load = load_[node];
    for (node /= 2; node >= 1; node /= 2) play(node);
    return load;
  }

 private:
  // Picks the winner by index and copies it up: selecting an index keeps
  // the compare branch-free (a conditional move), where selecting the
  // doubles themselves compiles to a branch on every level.
  void play(std::size_t node) noexcept {
    const std::size_t left = 2 * node;
    const std::size_t winner = load_[left + 1] < load_[left] ? left + 1 : left;
    load_[node] = load_[winner];
    id_[node] = id_[winner];
  }

  std::size_t leaves_;
  std::vector<Time> load_;     // index 1 = root, [leaves_, 2 * leaves_) = leaves
  std::vector<MachineId> id_;  // winner id per node
};

// An LPT order visits the weights and the assignment at random. Asking
// for a task's entries this many tasks ahead overlaps those cache misses
// with the tree walks in between.
constexpr std::size_t kPrefetchAhead = 16;

GreedyScheduleResult greedy_over(std::span<const Time> weights,
                                 std::span<const TaskId> order,
                                 std::vector<Time> initial_loads) {
  const auto m = static_cast<MachineId>(initial_loads.size());
  if (m == 0) throw std::invalid_argument("list_schedule: need at least one machine");

  GreedyScheduleResult result;
  result.assignment = Assignment(weights.size());
  result.loads = std::move(initial_loads);

  WinnerTree tree(result.loads);
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
  return greedy_over(weights, order, std::vector<Time>(num_machines, 0));
}

GreedyScheduleResult list_schedule(std::span<const Time> weights, MachineId num_machines,
                                   std::span<const TaskId> order) {
  return greedy_over(weights, order, std::vector<Time>(num_machines, 0));
}

GreedyScheduleResult list_schedule_onto(std::span<const Time> weights,
                                        std::span<const TaskId> order,
                                        std::vector<Time> initial_loads) {
  return greedy_over(weights, order, std::move(initial_loads));
}

}  // namespace rdp
