// Exhaustive P||Cmax solver for tiny instances: the test oracle that the
// branch-and-bound solver and the certification engine are checked
// against. Test-only; the library never enumerates.
#pragma once

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"

namespace rdp {

struct BruteForceResult {
  Time optimal = 0;
  Assignment assignment;
};

namespace brute_force_detail {

inline void recurse(std::span<const Time> p, MachineId m, TaskId j,
                    std::vector<Time>& loads, std::vector<MachineId>& current,
                    Time& best, std::vector<MachineId>& best_assignment) {
  if (j == p.size()) {
    const Time cmax = *std::max_element(loads.begin(), loads.end());
    if (cmax < best) {
      best = cmax;
      best_assignment = current;
    }
    return;
  }
  // Symmetry pinning: the first task goes to machine 0 only.
  const MachineId limit = (j == 0) ? 1 : m;
  for (MachineId i = 0; i < limit; ++i) {
    if (loads[i] + p[j] >= best) continue;  // cannot improve
    loads[i] += p[j];
    current[j] = i;
    recurse(p, m, j + 1, loads, current, best, best_assignment);
    loads[i] -= p[j];
  }
}

}  // namespace brute_force_detail

/// Enumerates all m^n assignments (with first-task symmetry pinning).
/// Throws std::invalid_argument when n > max_tasks (guard against
/// accidental exponential blowups in tests).
[[nodiscard]] inline BruteForceResult brute_force_cmax(std::span<const Time> p, MachineId m,
                                                       std::size_t max_tasks = 14) {
  if (m == 0) throw std::invalid_argument("brute_force_cmax: m must be >= 1");
  if (p.size() > max_tasks) {
    throw std::invalid_argument("brute_force_cmax: instance too large (n=" +
                                std::to_string(p.size()) + ")");
  }
  BruteForceResult result;
  if (p.empty()) {
    result.assignment = Assignment(0);
    return result;
  }
  std::vector<Time> loads(m, 0);
  std::vector<MachineId> current(p.size(), kNoMachine);
  std::vector<MachineId> best_assignment(p.size(), 0);
  Time best = std::numeric_limits<Time>::infinity();
  brute_force_detail::recurse(p, m, 0, loads, current, best, best_assignment);
  result.optimal = best;
  result.assignment.machine_of = best_assignment;
  return result;
}

}  // namespace rdp
