#include "stats/welford.hpp"

#include <algorithm>
#include <cmath>

namespace rdp {

void Welford::merge(const Welford& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Welford::variance() const noexcept {
  // m2_ is non-negative in exact arithmetic but can round to a tiny
  // negative under cancellation; clamp so stddev() never goes NaN.
  return count_ > 1 ? std::max(0.0, m2_) / static_cast<double>(count_ - 1) : 0.0;
}

double Welford::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace rdp
