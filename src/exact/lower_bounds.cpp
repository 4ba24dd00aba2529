#include "exact/lower_bounds.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/scan.hpp"

namespace rdp {

namespace {

Time avg_load_bound(std::span<const Time> p, MachineId m) {
  if (m == 0) throw std::invalid_argument("avg_load_bound: m must be >= 1");
  return sum_scan(p) / static_cast<double>(m);
}

Time longest_task_bound(std::span<const Time> p) { return max_scan(p); }

Time pairing_bound(std::span<const Time> p, MachineId m) {
  if (m == 0) throw std::invalid_argument("pairing_bound: m must be >= 1");
  if (p.size() <= m) return 0;
  // The m+1 largest tasks: two of them share a machine in any schedule,
  // and the cheapest such pair is the two smallest of those m+1.
  std::vector<Time> top(p.begin(), p.end());
  std::nth_element(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(m),
                   top.end(), std::greater<>());
  top.resize(m + 1);
  std::sort(top.begin(), top.end());
  return top[0] + top[1];
}

}  // namespace

Time makespan_lower_bound(std::span<const Time> p, MachineId m) {
  return std::max({avg_load_bound(p, m), longest_task_bound(p), pairing_bound(p, m)});
}

}  // namespace rdp
