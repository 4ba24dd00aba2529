// The one way the library orders task ids by a per-task time (LPT/SPT,
// canonical forms, admission, per-machine timelines, the SLO sweep).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace rdp {

enum class SortDirection { kAscending, kDescending };

/// Ids 0..n-1 of `times` by time (ascending or descending), ties toward
/// the smaller id: exactly std::stable_sort of the ids with `<` (resp.
/// `>`) on their time, so -0.0 ties +0.0. O(n) for times spread over
/// [min, max] (~n monotone buckets); all-equal, infinite or subnormal
/// ranges cost one stable sort. NaN has no place in the order, but the
/// result is still a permutation. The 16n-byte pair buffer is `*scratch`
/// when given (resized, kept for the caller's next call), else local.
[[nodiscard]] std::vector<TaskId> order_by_time(
    std::span<const Time> times, SortDirection direction,
    std::vector<std::pair<Time, TaskId>>* scratch = nullptr);

}  // namespace rdp
