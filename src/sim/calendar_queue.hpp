// Bucketed calendar queue -- the O(1)-amortized event queue behind the
// rewritten simulator hot path (replacing the std::priority_queue binary
// heaps in the event-driven dispatchers).
//
// Events are hashed into time buckets of one "year" width; a pop scans
// the bucket that covers the current simulated instant and only falls
// through to the next bucket when the current one holds no event of the
// current year. With the width tuned to the queue's time spread divided
// by its size, each year holds O(1) events, so push and pop are amortized
// O(1) versus the heap's O(log n).
//
// Storage is a flat slab: kBucketCap event slots per bucket in one
// contiguous array plus a one-byte occupancy count per bucket. A pop's
// year scan walks the count array sequentially and reads one cache-line-
// sized slot group -- no per-bucket vector headers to chase, and no
// sensitivity to how fragmented the heap got before the queue was built.
// The rare year whose population exceeds kBucketCap spills into a small
// binary-heap overflow whose minimum is compared against the calendar's
// candidate on every pop; rebuilds (size doubling/halving, periodic width
// recalibration) fold the overflow back into the slab.
//
// Determinism contract: pops are totally ordered by the `Before`
// comparator, which callers must make a strict total order (the
// dispatchers include their monotone sequence counter as the final
// tie-break, preserving the FIFO-among-equal-times guarantee of the old
// binary heaps bit-for-bit). `Before(a, b)` means "a pops before b" and
// must be consistent with event time: time(a) < time(b) implies
// Before(a, b). Scans never use insertion order -- the minimum per
// `Before` is selected among the events of the current year -- so the
// pop sequence is independent of bucket geometry, spill history, and
// resize history.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace rdp {

template <typename Event, typename GetTime, typename Before>
class CalendarQueue {
 public:
  explicit CalendarQueue(GetTime get_time = GetTime{}, Before before = Before{})
      : get_time_(std::move(get_time)), before_(std::move(before)) {
    resize_slab(kMinBuckets);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void push(Event event) {
    const Time t = get_time_(event);
    assert(t >= 0);
    if (size_ == 0 || t < search_time_) {
      search_time_ = t;  // robustness: rewind, never skip an event
    }
    const std::size_t b = virtual_of(t) & (bucket_count_ - 1);
    if (counts_[b] < kBucketCap) {
      slots_[b * kBucketCap + counts_[b]] = std::move(event);
      ++counts_[b];
    } else {
      overflow_.push_back(std::move(event));
      std::push_heap(overflow_.begin(), overflow_.end(), overflow_after());
    }
    ++size_;
    ++ops_since_rebuild_;
    cached_min_valid_ = false;
    if (size_ > bucket_count_ * 2 && bucket_count_ < kMaxBuckets) {
      rebuild(bucket_count_ * 2);
    } else if (ops_since_rebuild_ > kRecalibrateSlack + 4 * size_) {
      // Periodic width recalibration: a long-lived queue's event horizon
      // slides and stretches (or shrinks), and the width that was right at
      // the last resize degrades into too-full or too-sparse years. Cost
      // is O(size + buckets) amortized over >= 4*size operations.
      rebuild(fitted_buckets());
    }
  }

  /// The next event to pop. Valid until the next push/pop.
  [[nodiscard]] const Event& top() {
    assert(size_ > 0);
    locate_min();
    return min_event();
  }

  Event pop() {
    assert(size_ > 0);
    ++ops_since_rebuild_;
    if (ops_since_rebuild_ > kRecalibrateSlack + 4 * size_) {
      rebuild(fitted_buckets());
    }
    locate_min();
    Event out = std::move(min_event());
    if (min_bucket_ == kOverflowBucket) {
      std::pop_heap(overflow_.begin(), overflow_.end(), overflow_after());
      overflow_.pop_back();
    } else {
      // Order within a bucket is irrelevant (pops select by comparator),
      // so swap-remove keeps removal O(1).
      const std::size_t base = min_bucket_ * kBucketCap;
      const std::size_t last = counts_[min_bucket_] - std::size_t{1};
      slots_[base + min_index_] = std::move(slots_[base + last]);
      counts_[min_bucket_] = static_cast<std::uint8_t>(last);
    }
    --size_;
    search_time_ = get_time_(out);
    cached_min_valid_ = false;
    return out;
  }

  /// Drops every event but keeps slab capacity (workspace reuse).
  void reset() {
    std::fill(counts_.begin(), counts_.end(), std::uint8_t{0});
    overflow_.clear();
    size_ = 0;
    search_time_ = 0;
    inv_width_ = 0;
    ops_since_rebuild_ = 0;
    cached_min_valid_ = false;
  }

 private:
  static constexpr std::size_t kBucketCap = 8;
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  static constexpr std::size_t kRecalibrateSlack = 64;
  static constexpr std::size_t kOverflowBucket = SIZE_MAX;
  static constexpr std::uint64_t kNoYearLimit = UINT64_MAX;

  /// Heap comparator for the overflow: std::push_heap keeps the *largest*
  /// at the front, so "after" ordering puts the Before-minimum there.
  [[nodiscard]] auto overflow_after() const {
    return [this](const Event& a, const Event& b) { return before_(b, a); };
  }

  [[nodiscard]] Event& min_event() {
    return min_bucket_ == kOverflowBucket
               ? overflow_.front()
               : slots_[min_bucket_ * kBucketCap + min_index_];
  }

  /// Virtual (un-wrapped) bucket index of time t. The same computation
  /// feeds placement and the pop-time year filter, so boundary rounding
  /// can never classify an event into one year and search it in another.
  /// Multiplies by the cached reciprocal: this runs once per *scanned*
  /// event on the pop path, and an FP division there dominates the scan.
  [[nodiscard]] std::uint64_t virtual_of(Time t) const noexcept {
    if (inv_width_ <= 0) return 0;
    const double v = t * inv_width_;
    if (v >= 9.0e15) return kNoYearLimit - 1;  // saturate far-future events
    return static_cast<std::uint64_t>(v);
  }

  /// Smallest power-of-two bucket count with count*2 >= size (within
  /// [kMin, kMax]), so periodic rebuilds also shed slab that a since-
  /// drained peak left behind (otherwise every recalibration of a small
  /// queue would still touch the peak-sized arrays).
  [[nodiscard]] std::size_t fitted_buckets() const noexcept {
    std::size_t want = kMinBuckets;
    while (want * 2 < size_ && want < kMaxBuckets) want <<= 1;
    return want;
  }

  void resize_slab(std::size_t bucket_count) {
    bucket_count_ = bucket_count;
    slots_.resize(bucket_count * kBucketCap);
    counts_.assign(bucket_count, 0);
  }

  void rebuild(std::size_t new_bucket_count) {
    scratch_.clear();
    scratch_.reserve(size_);
    for (std::size_t b = 0; b < bucket_count_; ++b) {
      for (std::size_t i = 0; i < counts_[b]; ++i) {
        scratch_.push_back(std::move(slots_[b * kBucketCap + i]));
      }
    }
    for (Event& event : overflow_) scratch_.push_back(std::move(event));
    overflow_.clear();
    if (bucket_count_ != new_bucket_count) {
      resize_slab(new_bucket_count);
    } else {
      std::fill(counts_.begin(), counts_.end(), std::uint8_t{0});
    }
    // Width = the average inter-event gap of the *current* contents (time
    // spread / size), so each year holds O(1) events no matter how the
    // arrival order interleaved times. Estimating from consecutive
    // push-time deltas instead would measure the arrival shuffle, not the
    // density: random-order pushes over a window of spread S average S/3
    // per delta and put the whole queue into a couple of buckets.
    if (size_ >= 2) {
      Time lo = get_time_(scratch_.front());
      Time hi = lo;
      for (const Event& event : scratch_) {
        const Time t = get_time_(event);
        lo = t < lo ? t : lo;
        hi = t > hi ? t : hi;
      }
      if (hi > lo) {
        inv_width_ = static_cast<double>(size_) / (hi - lo);
      }
      // All-equal times: any width works (one shared year); keep as-is.
    }
    const std::size_t mask = bucket_count_ - 1;
    for (Event& event : scratch_) {
      const std::size_t b = virtual_of(get_time_(event)) & mask;
      if (counts_[b] < kBucketCap) {
        slots_[b * kBucketCap + counts_[b]] = std::move(event);
        ++counts_[b];
      } else {
        overflow_.push_back(std::move(event));
      }
    }
    std::make_heap(overflow_.begin(), overflow_.end(), overflow_after());
    scratch_.clear();
    ops_since_rebuild_ = 0;
    cached_min_valid_ = false;
  }

  void locate_min() {
    if (cached_min_valid_) return;
    assert(size_ > 0);
    bool found = false;
    if (inv_width_ <= 0) {
      // Warm-up regime: every slab event lives in bucket 0.
      found = find_min_in(0, kNoYearLimit, false);
    } else {
      std::uint64_t year = virtual_of(search_time_);
      const std::size_t mask = bucket_count_ - 1;
      for (std::size_t scanned = 0; scanned < bucket_count_;
           ++scanned, ++year) {
        const std::size_t b = static_cast<std::size_t>(year) & mask;
        if (counts_[b] == 0) continue;
        if (find_min_in(b, year, false)) {
          found = true;
          break;
        }
      }
      if (!found) {
        // Every slab event lies beyond a full calendar round (sparse far
        // future): direct scan over all buckets with no year filter.
        for (std::size_t b = 0; b < bucket_count_; ++b) {
          if (counts_[b] == 0) continue;
          found = find_min_in(b, kNoYearLimit, found);
        }
      }
    }
    // The overflow minimum competes with the calendar candidate: a spilled
    // event may belong to any year, including one earlier than wherever
    // the year scan stopped.
    if (!overflow_.empty() &&
        (!found || before_(overflow_.front(), min_event()))) {
      min_bucket_ = kOverflowBucket;
      min_index_ = 0;
      found = true;
    }
    assert(found);
    cached_min_valid_ = true;
  }

  // Narrows (min_bucket_, min_index_) with this bucket's events whose
  // virtual bucket is <= max_year (<= rather than ==: a rewound search
  // may start past events that were pushed behind the previous search
  // point). `have` says whether the current (min_bucket_, min_index_) is
  // already a live candidate to compare against; returns whether one
  // exists afterwards.
  bool find_min_in(std::size_t b, std::uint64_t max_year, bool have) {
    const std::size_t base = b * kBucketCap;
    for (std::size_t i = 0; i < counts_[b]; ++i) {
      if (virtual_of(get_time_(slots_[base + i])) > max_year) continue;
      if (!have || before_(slots_[base + i], min_event())) {
        min_bucket_ = b;
        min_index_ = i;
        have = true;
      }
    }
    return have;
  }

  GetTime get_time_;
  Before before_;
  std::vector<Event> slots_;          ///< bucket_count_ * kBucketCap slab
  std::vector<std::uint8_t> counts_;  ///< live slots per bucket
  std::vector<Event> overflow_;       ///< Before-min binary heap of spills
  std::vector<Event> scratch_;        ///< rebuild staging, capacity retained
  std::size_t bucket_count_ = 0;
  std::size_t size_ = 0;
  Time search_time_ = 0;          ///< last popped time (scan start hint)
  double inv_width_ = 0;          ///< 1 / bucket width; <= 0 until calibrated
  std::size_t ops_since_rebuild_ = 0;
  std::size_t min_bucket_ = 0;
  std::size_t min_index_ = 0;
  bool cached_min_valid_ = false;
};

}  // namespace rdp
