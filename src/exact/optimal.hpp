// Certified optimum (or bracket) for P||Cmax, combining the analytic
// bounds, LPT, MULTIFIT, and branch-and-bound. This is what experiments
// divide by when reporting competitive ratios: when `exact` is false the
// ratio computed against `lower` is an over-estimate, so "measured ratio
// <= theorem bound" checks remain sound.
#pragma once

#include <cstdint>
#include <span>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "exact/branch_and_bound.hpp"

namespace rdp {

/// Which solver family produced a CertifiedCmax bracket. The small-n path
/// stacks analytic bounds, the m==2 partition DP, MULTIFIT, and
/// branch-and-bound; the large-n path is the Hochbaum-Shmoys
/// dual-approximation bisection (exact/certify_scale.hpp). The tag lets
/// reports and counters distinguish the two without changing the
/// {lower, upper} contract.
enum class CertifyBackend : std::uint8_t {
  kBnb = 0,
  kPtas = 1,
};

[[nodiscard]] constexpr const char* to_string(CertifyBackend backend) {
  return backend == CertifyBackend::kPtas ? "ptas" : "bnb";
}

struct CertifiedCmax {
  Time lower = 0;   ///< certified lower bound on OPT
  Time upper = 0;   ///< makespan of the best schedule found
  bool exact = false;  ///< lower == upper == OPT
  Assignment assignment;  ///< schedule achieving `upper`
  CertifyBackend backend = CertifyBackend::kBnb;  ///< solver that produced this
};

/// Computes a certified optimum bracket. `node_budget` bounds the
/// branch-and-bound effort (0 disables B&B entirely and returns the
/// heuristic bracket). `warm` optionally seeds the branch-and-bound
/// incumbent (see BnbWarmStart); it can only tighten the result. Throws
/// std::invalid_argument naming the first non-finite time in `p`.
[[nodiscard]] CertifiedCmax certified_cmax(std::span<const Time> p, MachineId m,
                                           std::uint64_t node_budget = 5'000'000,
                                           const BnbWarmStart& warm = {});

}  // namespace rdp
