// Exact P||Cmax via depth-first branch-and-bound: LPT incumbent, analytic
// lower bounds, and one dominance rule -- equally loaded machines are
// interchangeable, so a task branches onto only one of them. Solves
// instances of a few dozen tasks in well under a second; a node budget
// caps the worst case and downgrades the result to certified bounds.
#pragma once

#include <cstdint>
#include <span>

#include "core/schedule.hpp"
#include "core/types.hpp"

namespace rdp {

struct BnbResult {
  Time best = 0;           ///< best makespan found (upper bound on OPT)
  Time lower_bound = 0;    ///< certified lower bound on OPT
  bool proven = false;     ///< true when best == OPT is certified
  std::uint64_t nodes = 0; ///< search nodes reached, as counted against the budget
  Assignment assignment;   ///< assignment achieving `best`
};

/// Optional warm start for the search: an assignment (task -> machine, in
/// the caller's task index space) whose makespan under `p` seeds the
/// incumbent when it beats LPT. Typical source: the solution of a similar
/// instance (e.g. another realization of the same workload); any complete
/// assignment is a valid upper bound, so warm starting never changes
/// which bounds are certified -- it only prunes the search earlier.
struct BnbWarmStart {
  const Assignment* assignment = nullptr;  ///< nullptr = no warm start
};

/// Throws std::invalid_argument, prefixed by `who`, naming the first index
/// of `p` that holds NaN or +-inf. The exact solvers call it on entry: a
/// non-finite time has no optimum to certify.
void require_finite_times(std::span<const Time> p, const char* who);

/// Solves (or bounds) min-makespan scheduling of `p` on `m` machines.
/// `node_budget` caps the search; on exhaustion `proven` is false and
/// [lower_bound, best] brackets the optimum. Throws std::invalid_argument
/// when m == 0 or a time is not finite.
[[nodiscard]] BnbResult branch_and_bound_cmax(std::span<const Time> p, MachineId m,
                                              std::uint64_t node_budget = 20'000'000,
                                              const BnbWarmStart& warm = {});

}  // namespace rdp
