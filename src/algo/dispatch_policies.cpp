#include "algo/dispatch_policies.hpp"

#include <algorithm>
#include <stdexcept>

#include "algo/lpt.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"

namespace rdp {

std::string to_string(PriorityRule rule) {
  switch (rule) {
    case PriorityRule::kInputOrder: return "ls";
    case PriorityRule::kLongestEstimateFirst: return "lpt";
    case PriorityRule::kShortestEstimateFirst: return "spt";
  }
  throw std::invalid_argument("to_string: unknown PriorityRule");
}

std::vector<TaskId> make_priority(const Instance& instance, PriorityRule rule) {
  const auto identity = [n = instance.num_tasks()] {
    std::vector<TaskId> order(n);
    for (TaskId j = 0; j < n; ++j) order[j] = j;
    return order;
  };
  switch (rule) {
    case PriorityRule::kInputOrder:
      return identity();
    case PriorityRule::kLongestEstimateFirst:
      return lpt_order(instance.estimates());
    case PriorityRule::kShortestEstimateFirst: {
      const auto estimates = instance.estimates();
      std::vector<TaskId> order = identity();
      std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
        return estimates[a] < estimates[b];
      });
      return order;
    }
  }
  throw std::invalid_argument("make_priority: unknown PriorityRule");
}

DispatchResult dispatch_with_rule(const Instance& instance, const Placement& placement,
                                  const Realization& actual, PriorityRule rule,
                                  std::vector<Time> initial_ready) {
  return dispatch_online(instance, placement, actual, make_priority(instance, rule),
                         std::move(initial_ready));
}

}  // namespace rdp
