#include "algo/lpt.hpp"

#include "core/order.hpp"

namespace rdp {

std::vector<TaskId> lpt_order(std::span<const Time> weights) {
  return order_by_time(weights, SortDirection::kDescending);
}

GreedyScheduleResult lpt_schedule(std::span<const Time> weights,
                                  MachineId num_machines) {
  const std::vector<TaskId> order = lpt_order(weights);
  return list_schedule(weights, num_machines, order);
}

double lpt_guarantee(MachineId num_machines) {
  const double m = static_cast<double>(num_machines);
  return 4.0 / 3.0 - 1.0 / (3.0 * m);
}

}  // namespace rdp
