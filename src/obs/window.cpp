#include "obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rdp::obs {

namespace {

/// Interval index of time t. Negative t (and NaN) floors to interval 0
/// -- serve clocks start at 0 and tiny negative jitter should not drop
/// samples. Quotients at or past 2^62 (t = inf included) clamp to 2^62
/// before the cast, which would be undefined at 2^63, and leave the
/// ring's index arithmetic room to step past the newest slot.
std::int64_t interval_index(double t, double interval) noexcept {
  constexpr std::int64_t kMaxIndex = std::int64_t{1} << 62;
  if (!(t > 0.0)) return 0;
  const double q = t / interval;
  return q < static_cast<double>(kMaxIndex) ? static_cast<std::int64_t>(q) : kMaxIndex;
}

}  // namespace

WindowedHistogram::WindowedHistogram(double interval_seconds,
                                     std::size_t num_intervals)
    : interval_(interval_seconds), ring_(num_intervals) {
  if (!(interval_seconds > 0.0) || !std::isfinite(interval_seconds)) {
    throw std::invalid_argument(
        "WindowedHistogram: interval_seconds must be positive and finite");
  }
  if (num_intervals == 0) {
    throw std::invalid_argument(
        "WindowedHistogram: num_intervals must be >= 1");
  }
}

void WindowedHistogram::advance_to(std::int64_t idx) noexcept {
  if (idx <= newest_) return;
  // Every interval in (newest_, idx] gets a fresh slot; slots that are
  // being re-entered after a full lap (or more) must forget their old
  // regime. Cap the walk at ring-size resets -- a jump further than one
  // lap clears the same slots anyway.
  const auto n = static_cast<std::int64_t>(ring_.size());
  const std::int64_t first = std::max(newest_ + 1, idx - n + 1);
  for (std::int64_t i = first; i <= idx; ++i) {
    ring_[static_cast<std::size_t>(i % n)].reset();
  }
  newest_ = idx;
  newest_slot_ = static_cast<std::size_t>(idx % n);
}

std::size_t WindowedHistogram::slot_of(std::int64_t idx) const noexcept {
  const std::size_t n = ring_.size();
  auto back = static_cast<std::size_t>(newest_ - idx);
  if (back >= n) back %= n;  // only a summary query behind the window
  return newest_slot_ >= back ? newest_slot_ - back : newest_slot_ + n - back;
}

void WindowedHistogram::observe(double t, double value) noexcept {
  const std::int64_t idx = interval_index(t, interval_);
  advance_to(idx);
  const auto n = static_cast<std::int64_t>(ring_.size());
  if (idx <= newest_ - n) {
    ++late_dropped_;
    return;
  }
  ring_[slot_of(idx)].observe(value);
}

LocalHistogram::Summary WindowedHistogram::interval_summary(double t) const noexcept {
  const std::int64_t idx = interval_index(t, interval_);
  const auto n = static_cast<std::int64_t>(ring_.size());
  if (newest_ < 0 || idx > newest_ || idx <= newest_ - n) return {};
  return ring_[slot_of(idx)].summary();
}

LocalHistogram::Summary WindowedHistogram::window_summary(double t) noexcept {
  const std::int64_t idx = interval_index(t, interval_);
  advance_to(idx);
  scratch_.reset();
  const auto n = static_cast<std::int64_t>(ring_.size());
  const std::int64_t first = std::max<std::int64_t>(0, idx - n + 1);
  for (std::int64_t i = first; i <= idx; ++i) {
    scratch_.merge(ring_[slot_of(i)]);
  }
  return scratch_.summary();
}

}  // namespace rdp::obs
