// A realization fixes the *actual* processing times p_j that phase 2
// discovers only as tasks complete. Any realization must respect the
// paper's Equation (1): estimate/alpha <= actual <= alpha*estimate.
#pragma once

#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;

/// Actual processing times, indexed by TaskId.
struct Realization {
  std::vector<Time> actual;

  [[nodiscard]] Time operator[](TaskId j) const { return actual.at(j); }
  [[nodiscard]] std::size_t size() const noexcept { return actual.size(); }
};

/// Realization where every actual time equals its estimate (alpha plays no
/// role); useful as a baseline and for certain-time substrates.
[[nodiscard]] Realization exact_realization(const Instance& instance);

/// True iff `r` has one entry per task and every entry lies within the
/// multiplicative alpha band of its estimate (with a tiny tolerance for
/// floating-point boundary values).
[[nodiscard]] bool respects_uncertainty(const Instance& instance, const Realization& r);

/// Clamps every actual time into the legal alpha band of its estimate.
[[nodiscard]] Realization clamp_to_band(const Instance& instance, Realization r);

/// Sum of actual processing times.
[[nodiscard]] Time total_actual(const Realization& r);

}  // namespace rdp
