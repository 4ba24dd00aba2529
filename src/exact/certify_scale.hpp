// Certified optimum brackets at 10^5..10^6 tasks: the Hochbaum-Shmoys
// (1987) dual-approximation decision procedure driving a bisection whose
// verdicts are *one-sided sound*. Every "no schedule <= T exists" answer
// is a proof (so the final `lo` is a certified lower bound on OPT), while
// "feasible" answers come with a constructible schedule whose true
// makespan is measured, never asserted. Together they bracket OPT within
// a (1 + 1/k) factor -- the large-n backend behind CertifyEngine's
// `CertifiedCmax{lower, upper}` contract (see exact/certify.hpp routing).
//
// Infeasibility proofs, in increasing cost (all exact-arithmetic sound):
//   1. max_j p_j > T                      -> OPT > T        O(1)
//   2. sum_j p_j > m*T*(1+eps)            -> OPT > T        O(1)
//   3. #{p_j > T/kr} > m*kr               -> OPT > T        O(log n)
//   4. rounded big jobs need > m bins     -> OPT > T        config DP
// where kr = k+1 is the internal rounding parameter; big jobs are rounded
// *down* to multiples of T/kr^2 (at most kr^2-kr+1 distinct classes), so
// check 4's bin-packing infeasibility transfers to the true instance.
// Feasible verdicts construct: FFD on the rounded bigs (or an exact
// config-DP packing when FFD fails), then small jobs poured in bulk via
// prefix-sum binary search. A DP that exhausts its state budget is
// "feasible-unproven": it may lower `hi` but never raises `lo`, so budget
// pressure degrades tightness, never soundness.
#pragma once

#include <cstddef>
#include <span>

#include "core/types.hpp"
#include "exact/optimal.hpp"

namespace rdp {

struct HsCertifyStats {
  int iterations = 0;         ///< decision probes evaluated
  int infeasible_proofs = 0;  ///< sound "OPT > T" verdicts
  int dp_decisions = 0;       ///< probes that reached the config DP
  int dp_exhaustions = 0;     ///< probes degraded by budget exhaustion
  std::size_t big_jobs = 0;   ///< big-job count at the constructed target
};

/// (1 + 1/k), the bracket width hs_certified_cmax aims for.
[[nodiscard]] constexpr double hs_guarantee(unsigned precision_k) {
  return 1.0 + 1.0 / static_cast<double>(precision_k);
}

/// Certified P||Cmax bracket via Hochbaum-Shmoys dual approximation.
/// `lower` is a sound lower bound on OPT, `upper` the measured makespan
/// of a fully materialized schedule, `backend` = CertifyBackend::kPtas.
/// `precision_k` (>= 2) is the guarantee parameter: upper <= (1 +
/// 1/precision_k) * lower when the bisection converges without config-DP
/// budget exhaustion. O(n log n) once (sort + prefix sums) plus
/// O(log(1/eps)) cheap probes; a probe allocates nothing unless it
/// reaches the config DP. Throws std::invalid_argument on m == 0,
/// precision_k < 2 or a NaN/inf time.
[[nodiscard]] CertifiedCmax hs_certified_cmax(std::span<const Time> p,
                                              MachineId m,
                                              unsigned precision_k = 8,
                                              HsCertifyStats* stats = nullptr);

}  // namespace rdp
