#include "core/order.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>

#include "core/prefetch.hpp"
#include "core/scan.hpp"

namespace rdp {

namespace {

// Descending is ascending on the key -t: negation is exact and keeps
// -0.0 tied with +0.0. Bucket b = floor((key - min) * n / (max - min))
// is monotone in the key, so concatenating the buckets, each stably
// sorted on the key, yields the global (key, id) order. `out` doubles as
// the bucket-count array until the ids are written back.
template <bool kDescending>
void bucket_order(std::span<const Time> times,
                  std::vector<std::pair<Time, TaskId>>& pairs, std::vector<TaskId>& out) {
  const std::size_t n = times.size();
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  // The key range (NaN never wins either scan); -t maps [lo, hi] to [-hi, -lo].
  Time lo = lane_scan(times, kInf, [](Time a, Time b) { return std::min(a, b); });
  Time hi = lane_scan(times, -kInf, [](Time a, Time b) { return std::max(a, b); });
  if (kDescending) lo = -std::exchange(hi, -lo);
  const Time range = hi - lo;
  double scale = static_cast<double>(n) / range;
  // One bucket for a zero, infinite or NaN range, or if n / range overflows.
  if (!(range > 0.0) || !std::isfinite(range) || !std::isfinite(scale)) scale = 0.0;
  const auto last = static_cast<double>(n - 1);
  const auto bucket_of = [&](Time key) -> std::size_t {
    // Clamp before the cast: a NaN or >= n product would make the
    // size_t conversion undefined.
    const double x = (key - lo) * scale;
    if (!(x > 0.0)) return 0;
    return x >= last ? n - 1 : static_cast<std::size_t>(x);
  };
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
  // out[b] is now the end of bucket b. Every key in bucket b is below
  // every key in bucket b + 1, so once the few buckets of more than 32
  // pairs are stably sorted, one insertion pass over the whole array
  // (stable, and moving a pair only within its bucket) finishes the order.
  const auto by_key = [](const std::pair<Time, TaskId>& a,
                         const std::pair<Time, TaskId>& b) { return a.first < b.first; };
  std::size_t begin = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t end = out[b];
    if (end - begin > 32) {
      std::stable_sort(pairs.begin() + static_cast<std::ptrdiff_t>(begin),
                       pairs.begin() + static_cast<std::ptrdiff_t>(end), by_key);
    }
    begin = end;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::pair<Time, TaskId> item = pairs[i];
    std::size_t k = i;
    for (; k > 0 && by_key(item, pairs[k - 1]); --k) pairs[k] = pairs[k - 1];
    pairs[k] = item;
  }
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
