#include "core/order.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <numeric>

#include "core/bucket_sort.hpp"
#include "core/prefetch.hpp"
#include "core/scan.hpp"

namespace rdp {

namespace {

// Descending is ascending on the key -t: negation is exact and keeps
// -0.0 tied with +0.0. One bucket per task (core/bucket_sort.hpp);
// `out` doubles as the bucket-count array until the ids are written back.
template <bool kDescending>
void bucket_order(std::span<const Time> times,
                  std::vector<std::pair<Time, TaskId>>& pairs, std::vector<TaskId>& out) {
  const std::size_t n = times.size();
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  // The key range (NaN never wins either scan); -t maps [lo, hi] to [-hi, -lo].
  Time lo = lane_scan(times, kInf, [](Time a, Time b) { return std::min(a, b); });
  Time hi = lane_scan(times, -kInf, [](Time a, Time b) { return std::max(a, b); });
  if (kDescending) lo = -std::exchange(hi, -lo);
  const TimeBuckets bucket_of(lo, hi, n);
  for (const Time t : times) ++out[bucket_of(kDescending ? -t : t)];
  std::exclusive_scan(out.begin(), out.end(), out.begin(), TaskId{0});
  pairs.resize(n);
  // The scatter writes `pairs` at random. A ring of the next kAhead
  // tasks' buckets, each still computed once, lets it ask for a task's
  // slot kAhead tasks before writing it, so those cache misses overlap.
  constexpr std::size_t kAhead = 16;
  const auto bucket_at = [&](std::size_t j) {
    return bucket_of(kDescending ? -times[j] : times[j]);
  };
  std::array<std::size_t, kAhead> ahead{};
  for (std::size_t j = 0; j < std::min(n, kAhead); ++j) ahead[j] = bucket_at(j);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t b = ahead[j % kAhead];
    if (j + kAhead < n) {
      ahead[j % kAhead] = bucket_at(j + kAhead);
      prefetch(&pairs[out[ahead[j % kAhead]]]);
    }
    const Time key = kDescending ? -times[j] : times[j];
    pairs[out[b]++] = {key, static_cast<TaskId>(j)};
  }
  // out[b] is now the end of bucket b.
  sort_within_buckets(std::span<std::pair<Time, TaskId>>(pairs),
                      std::span<const TaskId>(out),
                      [](const std::pair<Time, TaskId>& a,
                         const std::pair<Time, TaskId>& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < n; ++i) out[i] = pairs[i].second;
}

}  // namespace

std::vector<TaskId> order_by_time(std::span<const Time> times, SortDirection direction,
                                  std::vector<std::pair<Time, TaskId>>* scratch) {
  std::vector<TaskId> out(times.size(), TaskId{0});
  if (times.empty()) return out;
  std::vector<std::pair<Time, TaskId>> local;
  (direction == SortDirection::kDescending ? bucket_order<true> : bucket_order<false>)(
      times, scratch != nullptr ? *scratch : local, out);
  return out;
}

}  // namespace rdp
