// The bucket sort on a time key shared by order_by_time (core/order.cpp)
// and the drain trace of dispatch_online's shape path
// (sim/shape_dispatch.cpp). Keys in [lo, hi] fall into equal-width
// buckets, b = floor((key - lo) * buckets / (hi - lo)), which is monotone
// in the key. So once the records sit grouped by bucket in ascending
// bucket order, each group in its input order, sorting within the buckets
// yields the global stable order: O(n) for keys spread over the range.
// Each caller counts and scatters its own records; this header holds the
// bucketing and the finishing sort.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/types.hpp"

namespace rdp {

/// Key -> bucket over [lo, hi]. A zero, infinite or NaN range, or one
/// whose buckets / range overflows, puts every key in bucket 0.
class TimeBuckets {
 public:
  TimeBuckets(Time lo, Time hi, std::size_t buckets) noexcept
      : lo_(lo), last_(static_cast<double>(buckets - 1)), top_(buckets - 1) {
    const Time range = hi - lo;
    scale_ = static_cast<double>(buckets) / range;
    if (!(range > 0.0) || !std::isfinite(range) || !std::isfinite(scale_)) scale_ = 0.0;
  }

  [[nodiscard]] std::size_t operator()(Time key) const noexcept {
    // Clamp before the cast: a NaN or out-of-range product would make the
    // size_t conversion undefined.
    const double x = (key - lo_) * scale_;
    if (!(x > 0.0)) return 0;
    return x >= last_ ? top_ : static_cast<std::size_t>(x);
  }

 private:
  Time lo_;
  double scale_ = 0.0;
  double last_;
  std::size_t top_;
};

/// Finishes the sort of `records`, grouped by bucket with bucket b ending
/// at ends[b]. Every key in bucket b is below every key in bucket b + 1,
/// so once the few buckets of more than 32 records are stably sorted by
/// `before`, one insertion pass over the whole array (stable, and moving a
/// record only within its bucket) completes the order.
template <typename Record, typename Before>
void sort_within_buckets(std::span<Record> records,
                         std::span<const std::uint32_t> ends, Before before) {
  std::size_t begin = 0;
  for (const std::uint32_t end : ends) {
    if (end - begin > 32) {
      std::stable_sort(records.begin() + static_cast<std::ptrdiff_t>(begin),
                       records.begin() + static_cast<std::ptrdiff_t>(end), before);
    }
    begin = end;
  }
  for (std::size_t i = 1; i < records.size(); ++i) {
    const Record item = records[i];
    std::size_t k = i;
    for (; k > 0 && before(item, records[k - 1]); --k) records[k] = records[k - 1];
    records[k] = item;
  }
}

}  // namespace rdp
