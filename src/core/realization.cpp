#include "core/realization.hpp"

#include <algorithm>

#include "core/instance.hpp"

namespace rdp {

namespace {
// Relative slack for floating-point comparisons on the band boundary.
constexpr double kBandTolerance = 1e-9;
}  // namespace

Realization exact_realization(const Instance& instance) {
  Realization r;
  r.actual.reserve(instance.num_tasks());
  for (const Task& t : instance.tasks()) r.actual.push_back(t.estimate);
  return r;
}

bool respects_uncertainty(const Instance& instance, const Realization& r) {
  if (r.actual.size() != instance.num_tasks()) return false;
  const double a = instance.alpha();
  for (TaskId j = 0; j < r.actual.size(); ++j) {
    const Time est = instance.estimate(j);
    const Time lo = est / a;
    const Time hi = est * a;
    const Time p = r.actual[j];
    if (p < lo * (1.0 - kBandTolerance) || p > hi * (1.0 + kBandTolerance)) {
      return false;
    }
  }
  return true;
}

Realization clamp_to_band(const Instance& instance, Realization r) {
  const double a = instance.alpha();
  const std::size_t n = std::min<std::size_t>(r.actual.size(), instance.num_tasks());
  for (TaskId j = 0; j < n; ++j) {
    const Time est = instance.estimate(j);
    r.actual[j] = std::clamp(r.actual[j], est / a, est * a);
  }
  return r;
}

Time total_actual(const Realization& r) {
  // Sequential-order sum on purpose: callers fold this into reported
  // aggregates whose goldens predate the unrolled scans.
  Time sum = 0;
  for (Time p : r.actual) sum += p;
  return sum;
}

}  // namespace rdp
