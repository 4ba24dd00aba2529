#include "exact/dual_approx.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algo/lpt.hpp"
#include "exact/first_fit_tree.hpp"
#include "exact/lower_bounds.hpp"

namespace rdp {

bool ffd_fits_ordered(std::span<const Time> p, std::span<const TaskId> order,
                      MachineId m, Time cap, FirstFitTree& bins,
                      Assignment* out) {
  if (m == 0) throw std::invalid_argument("ffd_fits: m must be >= 1");
  // Relative slack collapses to an exact comparison at cap == 0 by design
  // (see kFfdRelativeSlack); only negative / NaN capacities are rejected.
  if (!(cap >= 0)) {
    throw std::invalid_argument("ffd_fits: cap must be >= 0 and not NaN");
  }
  bins.reset(m);
  if (out != nullptr) out->machine_of.assign(p.size(), kNoMachine);
  const Time cap_eff = cap * (1.0 + kFfdRelativeSlack);
  for (TaskId j : order) {
    const MachineId bin = bins.place(p[j], cap_eff);
    if (bin == kNoMachine) return false;
    if (out != nullptr) out->machine_of[j] = bin;
  }
  return true;
}

bool ffd_fits(std::span<const Time> p, MachineId m, Time cap, Assignment* out) {
  const std::vector<TaskId> order = lpt_order(p);
  FirstFitTree bins;
  return ffd_fits_ordered(p, order, m, cap, bins, out);
}

MultifitResult multifit_cmax(std::span<const Time> p, MachineId m,
                             int iterations) {
  if (m == 0) throw std::invalid_argument("multifit_cmax: m must be >= 1");
  MultifitResult result;
  result.assignment = Assignment(p.size());
  if (p.empty()) return result;

  Time lo = makespan_lower_bound(p, m);
  result.certified_lower = lo;
  // Sorted once: LPT and every bisection iteration reuse the order (and
  // the first-fit tree), so an iteration costs O(n log m), allocation-free.
  const std::vector<TaskId> order = lpt_order(p);
  const GreedyScheduleResult lpt = list_schedule(p, m, order);
  Time hi = lpt.makespan;
  result.assignment = lpt.assignment;
  FirstFitTree bins;
  Assignment candidate(p.size());
  Time highest_failed_cap = 0;
  for (int it = 0; it < iterations && lo < hi; ++it) {
    const Time cap = 0.5 * (lo + hi);
    if (ffd_fits_ordered(p, order, m, cap, bins, &candidate)) {
      // Feasible at cap: the realized bin loads may even be below cap.
      hi = cap;
      std::swap(result.assignment, candidate);
    } else {
      lo = cap;
      highest_failed_cap = std::max(highest_failed_cap, cap);
    }
    ++result.iterations;
  }

  // FFD failure at C certifies OPT > (11/13) * C (MULTIFIT lemma).
  if (highest_failed_cap > 0) {
    result.certified_lower =
        std::max(result.certified_lower,
                 highest_failed_cap * multifit_certified_lower_factor());
  }

  // Report the true max load of the final packing, not the capacity.
  std::vector<Time> loads(m, 0);
  for (TaskId j = 0; j < p.size(); ++j) {
    loads[result.assignment.machine_of[j]] += p[j];
  }
  result.makespan = *std::max_element(loads.begin(), loads.end());
  result.certified_lower = std::min(result.certified_lower, result.makespan);
  return result;
}

}  // namespace rdp
