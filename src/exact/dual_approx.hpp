// MULTIFIT (Coffman, Garey & Johnson 1978): binary search on a makespan
// target with a First-Fit-Decreasing packing check. Worst-case ratio
// 13/11 on P||Cmax -- the "arbitrarily good approximation ... with a dual
// approximation algorithm" family the paper cites (Hochbaum & Shmoys); we
// implement the classical practical member of the family and expose the
// FFD feasibility check itself for dual-approximation use.
//
// The dual reading also yields a *certified lower bound*: if FFD fails to
// pack into m bins of capacity C, then C < (13/11)*OPT (contrapositive of
// the MULTIFIT guarantee), i.e. OPT > (11/13)*C. `multifit_cmax` records
// the highest failed capacity and reports that certificate alongside the
// schedule -- the cheap middle rung of the certification ladder between
// the analytic bounds and the Hochbaum-Shmoys PTAS (exact/certify_scale).
#pragma once

#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "core/types.hpp"
#include "exact/first_fit_tree.hpp"

namespace rdp {

/// Relative slack applied to the FFD capacity test: an item fits in a bin
/// when `load + p <= cap * (1 + kFfdRelativeSlack)`. The slack absorbs
/// accumulation error from summing loads, so a capacity obtained from the
/// very sums it is compared against does not flip feasibility on the last
/// ulp.
///
/// Contract: the slack is *relative*, so it scales with `cap` and
/// vanishes at `cap == 0` -- the test degenerates to the exact comparison
/// `load + p <= 0`. That is deliberate: zero-size tasks still pack into
/// zero-capacity bins (0 + 0 <= 0), any positive task correctly fails,
/// and no absolute epsilon leaks spurious capacity into degenerate
/// all-zero instances. `cap` must be non-negative and not NaN; anything
/// else is a caller bug and throws.
inline constexpr double kFfdRelativeSlack = 1e-12;

/// First-Fit-Decreasing feasibility: can `p` be packed into m bins of
/// capacity `cap` when placed in non-increasing order, each into the
/// first bin that fits? On success, `out` (if non-null) receives the
/// task -> bin assignment.
[[nodiscard]] bool ffd_fits(std::span<const Time> p, MachineId m, Time cap,
                            Assignment* out = nullptr);

/// Hot-path FFD: the caller supplies the non-increasing `order` (computed
/// once, reused across every bisection iteration) and a FirstFitTree used
/// as scratch, making the check O(n log m) with no allocation in the
/// steady state; `ffd_fits` is this check with the order built per
/// call. On failure the contents of `out` are unspecified.
[[nodiscard]] bool ffd_fits_ordered(std::span<const Time> p,
                                    std::span<const TaskId> order, MachineId m,
                                    Time cap, FirstFitTree& bins,
                                    Assignment* out = nullptr);

struct MultifitResult {
  Time makespan = 0;
  Assignment assignment;
  int iterations = 0;
  /// Sound lower bound on OPT: the max of the analytic bound and
  /// (11/13) * (highest capacity FFD failed at). Always <= makespan.
  Time certified_lower = 0;
};

/// MULTIFIT with `iterations` bisection steps (7 suffices for the classic
/// guarantee; more sharpens the numeric target). Sorts once up front and
/// reuses the order across iterations.
[[nodiscard]] MultifitResult multifit_cmax(std::span<const Time> p, MachineId m,
                                           int iterations = 24);

/// MULTIFIT's worst-case approximation guarantee (13/11).
[[nodiscard]] constexpr double multifit_guarantee() { return 13.0 / 11.0; }

/// FFD failure at capacity C certifies OPT > (11/13) * C.
[[nodiscard]] constexpr double multifit_certified_lower_factor() {
  return 11.0 / 13.0;
}

}  // namespace rdp
