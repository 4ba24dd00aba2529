// Closed-form guarantees of the replication-bound model (the paper's
// Table 1), plus the classical Graham bounds used for comparison. All
// functions are pure; alpha must be >= 1, m >= 1, and for the group bound
// k in [1, m].
#pragma once

#include <vector>

#include "core/types.hpp"

namespace rdp {

/// Theorem 1: no online algorithm with |M_j| = 1 beats
/// alpha^2 m / (alpha^2 + m - 1).
[[nodiscard]] double thm1_no_replication_lower_bound(double alpha, MachineId m);

/// Theorem 2: LPT-NoChoice is 2 alpha^2 m / (2 alpha^2 + m - 1) competitive.
[[nodiscard]] double thm2_lpt_no_choice(double alpha, MachineId m);

/// Theorem 3 combined with Graham: min(1 + (m-1)/m * alpha^2 / 2,
/// 2 - 1/m), the guarantee the paper states for LPT-NoRestriction. The
/// second term wins once alpha exceeds sqrt(2).
[[nodiscard]] double thm3_lpt_no_restriction(double alpha, MachineId m);

/// Theorem 4: LS-Group with k groups is
/// k alpha^2/(alpha^2+k-1) * (1 + (k-1)/m) + (m-k)/m competitive.
[[nodiscard]] double thm4_ls_group(double alpha, MachineId m, MachineId k);

/// Graham's List Scheduling competitive ratio 2 - 1/m (valid with any
/// amount of replication >= everywhere, independent of alpha).
[[nodiscard]] double graham_list_scheduling(MachineId m);

/// One point of the paper's Figure 3: the guarantee attached to a given
/// replication degree r = m/k on m machines (r = 1 -> Theorem 2;
/// r = m -> Theorem 3; otherwise Theorem 4 with k = m/r groups).
[[nodiscard]] double ratio_for_replication_degree(double alpha, MachineId m,
                                                  MachineId replication);

/// All divisors of m in increasing order: the feasible replication
/// degrees for equal-size groups (the x-axis of Figure 3).
[[nodiscard]] std::vector<MachineId> feasible_replication_degrees(MachineId m);

/// The smallest feasible replication degree r > 1 whose LS-Group
/// guarantee beats the Theorem 1 *lower bound* of the no-replication
/// model (the paper's "better guarantee with fewer replications than
/// can be achieved on a single machine" headline). Returns 0 when no
/// degree below m achieves it.
[[nodiscard]] MachineId min_replication_beating_lower_bound(double alpha,
                                                            MachineId m);

}  // namespace rdp
