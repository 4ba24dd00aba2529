// Unrolled reductions over contiguous Time arrays (load vectors, finish
// times, realizations). Compilers refuse to vectorize floating-point
// reductions at -O2 because reassociation changes rounding; splitting the
// loop into independent lanes hands them the reassociated form
// explicitly, which SLP-vectorizes and pipelines even when it does not.
//
// Bit-exactness notes:
//  * max_scan (like a min scan) is safe to reorder: IEEE max of non-NaN
//    values is associative and commutative, so the lane split returns
//    the exact bits of the sequential loop.
//  * sum_scan IS a reassociation -- its result may differ from the
//    sequential sum in the last ulp. Callers that feed goldens use it
//    deliberately and own the (regenerated) expectations.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "core/types.hpp"

namespace rdp {

/// Reduces `values` with `op` from `init` in four independent lanes,
/// combined pairwise: op(op(l0, l1), op(l2, l3)).
template <typename Op>
[[nodiscard]] Time lane_scan(std::span<const Time> values, Time init, Op op) noexcept {
  const std::size_t n = values.size();
  const Time* const v = values.data();
  Time l0 = init, l1 = init, l2 = init, l3 = init;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    l0 = op(l0, v[k]);
    l1 = op(l1, v[k + 1]);
    l2 = op(l2, v[k + 2]);
    l3 = op(l3, v[k + 3]);
  }
  for (; k < n; ++k) l0 = op(l0, v[k]);
  return op(op(l0, l1), op(l2, l3));
}

/// Maximum over `values`, 0 when empty (loads and finish times are
/// non-negative, so 0 is the identity the callers want).
[[nodiscard]] inline Time max_scan(std::span<const Time> values) noexcept {
  return lane_scan(values, 0, [](Time a, Time b) { return std::max(a, b); });
}

/// Sum of `values` with four independent accumulators (pairwise combine).
[[nodiscard]] inline Time sum_scan(std::span<const Time> values) noexcept {
  return lane_scan(values, 0, [](Time a, Time b) { return a + b; });
}

}  // namespace rdp
