#include "sim/workspace.hpp"

namespace rdp {

void SimWorkspace::begin_run(std::size_t /*num_tasks*/, MachineId num_machines) {
  arena.reset();
  events.reset();
  // Never shrink the outer vector: inner heaps keep their capacity for
  // the next run at this machine count.
  if (machine_heaps.size() < num_machines) machine_heaps.resize(num_machines);
  for (MachineId i = 0; i < num_machines; ++i) machine_heaps[i].clear();
  parked.clear();
}

SimWorkspace& thread_workspace() {
  static thread_local SimWorkspace ws;
  return ws;
}

}  // namespace rdp
