#include "algo/dispatch_policies.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

#include "algo/lpt.hpp"
#include "core/instance.hpp"
#include "core/order.hpp"
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
  switch (rule) {
    case PriorityRule::kInputOrder: {
      std::vector<TaskId> order(instance.num_tasks());
      std::iota(order.begin(), order.end(), TaskId{0});
      return order;
    }
    case PriorityRule::kLongestEstimateFirst:
      return lpt_order(instance.estimates());
    case PriorityRule::kShortestEstimateFirst:
      return order_by_time(instance.estimates(), SortDirection::kAscending);
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
