#include "exact/optimal.hpp"

#include <cmath>

#include <algorithm>

#include "algo/lpt.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/dual_approx.hpp"
#include "exact/lower_bounds.hpp"
#include "exact/partition_dp.hpp"

namespace rdp {

CertifiedCmax certified_cmax(std::span<const Time> p, MachineId m,
                             std::uint64_t node_budget, const BnbWarmStart& warm) {
  require_finite_times(p, "certified_cmax");
  CertifiedCmax result;
  result.assignment = Assignment(p.size());
  if (p.empty()) {
    result.exact = true;
    return result;
  }

  result.lower = makespan_lower_bound(p, m);

  if (m == 2) {
    // Pseudo-polynomial fast path: subset-sum DP at a resolution that
    // keeps the bitset around half a million cells.
    Time total = 0;
    for (Time v : p) total += v;
    const double resolution = std::max(total / 4.0e6, 1e-9);
    const PartitionResult dp = partition_cmax(p, resolution);
    result.upper = dp.makespan;
    result.assignment = dp.assignment;
    result.lower = std::max(result.lower, dp.lower_bound);
    if (dp.exact) {
      result.exact = true;
      result.lower = result.upper = dp.makespan;
      return result;
    }
  }

  const MultifitResult mf = multifit_cmax(p, m);
  if (result.upper == 0 || mf.makespan < result.upper) {
    result.upper = mf.makespan;
    result.assignment = mf.assignment;
  }

  constexpr double kEps = 1e-9;
  if (result.upper <= result.lower * (1.0 + kEps)) {
    result.exact = true;
    result.lower = result.upper;
    return result;
  }

  if (node_budget > 0) {
    const BnbResult bnb = branch_and_bound_cmax(p, m, node_budget, warm);
    if (bnb.best < result.upper) {
      result.upper = bnb.best;
      result.assignment = bnb.assignment;
    }
    if (bnb.proven) {
      result.exact = true;
      result.lower = result.upper = bnb.best;
      result.assignment = bnb.assignment;
    } else {
      result.lower = std::max(result.lower, bnb.lower_bound);
    }
  }
  return result;
}

}  // namespace rdp
