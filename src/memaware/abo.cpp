#include "memaware/abo.hpp"

#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/realization.hpp"

namespace rdp {

namespace {

Placement build_placement(const Instance& instance, const SboResult& sbo) {
  std::vector<std::vector<MachineId>> sets(instance.num_tasks());
  std::vector<MachineId> all(instance.num_machines());
  for (MachineId i = 0; i < instance.num_machines(); ++i) all[i] = i;
  for (TaskId j = 0; j < instance.num_tasks(); ++j) {
    if (sbo.in_s2[j]) {
      sets[j] = {sbo.pi.pi2[j]};
    } else {
      sets[j] = all;
    }
  }
  return Placement(std::move(sets), instance.num_machines());
}

// Priority: pinned memory-intensive tasks first (each machine drains its
// S2 queue before competing for replicated work), then S1 in input order
// (Graham's LS).
std::vector<TaskId> build_priority(const Instance& instance,
                                   const std::vector<bool>& in_s2) {
  std::vector<TaskId> priority;
  priority.reserve(instance.num_tasks());
  for (TaskId j = 0; j < instance.num_tasks(); ++j) {
    if (in_s2[j]) priority.push_back(j);
  }
  for (TaskId j = 0; j < instance.num_tasks(); ++j) {
    if (!in_s2[j]) priority.push_back(j);
  }
  return priority;
}

}  // namespace

AboResult run_abo(const Instance& instance, const Realization& actual, double delta) {
  const SboResult sbo = run_sbo(instance, delta);

  AboResult result;
  result.delta = delta;
  result.in_s2 = sbo.in_s2;
  result.pi = sbo.pi;
  result.placement = build_placement(instance, sbo);
  result.max_memory = max_memory(result.placement, instance);

  DispatchResult dispatched = dispatch_online(
      instance, result.placement, actual, build_priority(instance, sbo.in_s2));
  result.schedule = std::move(dispatched.schedule);
  result.trace = std::move(dispatched.trace);
  result.makespan = result.schedule.makespan();
  return result;
}

}  // namespace rdp
