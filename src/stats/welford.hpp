// Numerically stable streaming moments (Welford's algorithm), used by the
// experiment harness to aggregate per-trial ratios without storing them.
#pragma once

#include <algorithm>
#include <cstddef>

namespace rdp {

class Welford {
 public:
  void add(double x) noexcept {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    const double d1 = x - mean_;
    mean_ += d1 / static_cast<double>(count_);
    const double d2 = x - mean_;
    m2_ += d1 * d2;
  }

  /// Merges another accumulator (parallel reduction; Chan et al. update).
  void merge(const Welford& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }

  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Raw second central moment (sum of squared deviations); exposed so
  /// tests can assert bitwise-identical aggregation across thread counts.
  [[nodiscard]] double m2() const noexcept { return m2_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rdp
