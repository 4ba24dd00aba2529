#include "bounds/replication_bounds.hpp"

#include <algorithm>
#include <stdexcept>

namespace rdp {

namespace {
void require_model(double alpha, MachineId m) {
  if (!(alpha >= 1.0)) throw std::invalid_argument("bounds: alpha must be >= 1");
  if (m == 0) throw std::invalid_argument("bounds: m must be >= 1");
}
}  // namespace

double thm1_no_replication_lower_bound(double alpha, MachineId m) {
  require_model(alpha, m);
  const double a2 = alpha * alpha;
  const double dm = static_cast<double>(m);
  return a2 * dm / (a2 + dm - 1.0);
}

double thm2_lpt_no_choice(double alpha, MachineId m) {
  require_model(alpha, m);
  const double a2 = alpha * alpha;
  const double dm = static_cast<double>(m);
  return 2.0 * a2 * dm / (2.0 * a2 + dm - 1.0);
}

namespace {

// Theorem 3 (raw form): 1 + (m-1)/m * alpha^2 / 2.
double thm3_lpt_no_restriction_raw(double alpha, MachineId m) {
  require_model(alpha, m);
  const double a2 = alpha * alpha;
  const double dm = static_cast<double>(m);
  return 1.0 + (dm - 1.0) / dm * a2 / 2.0;
}

}  // namespace

double thm3_lpt_no_restriction(double alpha, MachineId m) {
  return std::min(thm3_lpt_no_restriction_raw(alpha, m), graham_list_scheduling(m));
}

double thm4_ls_group(double alpha, MachineId m, MachineId k) {
  require_model(alpha, m);
  if (k == 0 || k > m) throw std::invalid_argument("thm4: need 1 <= k <= m");
  const double a2 = alpha * alpha;
  const double dm = static_cast<double>(m);
  const double dk = static_cast<double>(k);
  return dk * a2 / (a2 + dk - 1.0) * (1.0 + (dk - 1.0) / dm) + (dm - dk) / dm;
}

double graham_list_scheduling(MachineId m) {
  if (m == 0) throw std::invalid_argument("bounds: m must be >= 1");
  return 2.0 - 1.0 / static_cast<double>(m);
}

double ratio_for_replication_degree(double alpha, MachineId m, MachineId replication) {
  require_model(alpha, m);
  if (replication == 0 || m % replication != 0) {
    throw std::invalid_argument(
        "ratio_for_replication_degree: replication must divide m");
  }
  if (replication == 1) return thm2_lpt_no_choice(alpha, m);
  if (replication == m) return thm3_lpt_no_restriction(alpha, m);
  return thm4_ls_group(alpha, m, m / replication);
}

std::vector<MachineId> feasible_replication_degrees(MachineId m) {
  if (m == 0) throw std::invalid_argument("bounds: m must be >= 1");
  std::vector<MachineId> divisors;
  for (MachineId r = 1; r <= m; ++r) {
    if (m % r == 0) divisors.push_back(r);
  }
  return divisors;
}

MachineId min_replication_beating_lower_bound(double alpha, MachineId m) {
  const double lb = thm1_no_replication_lower_bound(alpha, m);
  for (MachineId r : feasible_replication_degrees(m)) {
    if (r == 1 || r == m) continue;
    if (thm4_ls_group(alpha, m, m / r) < lb) return r;
  }
  return 0;
}

}  // namespace rdp
