// Empirical Pareto fronts for the memory-aware algorithms: sweep Delta,
// measure (makespan, memory) under a realization, and keep the
// non-dominated points -- the measured counterpart of the paper's
// Figure 6 guarantee curves.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;
struct Realization;

struct ParetoPoint {
  double delta = 0;
  std::string algorithm;  ///< "SABO" or "ABO"
  Time makespan = 0;
  double memory = 0;
};

/// True iff `a` dominates `b` (<= in both objectives, < in at least one).
[[nodiscard]] bool dominates(const ParetoPoint& a, const ParetoPoint& b);

/// Filters to the non-dominated subset, sorted by ascending makespan.
[[nodiscard]] std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> points);

/// Runs SABO and ABO over a log-spaced Delta sweep against one
/// realization and returns all measured points (unfiltered).
[[nodiscard]] std::vector<ParetoPoint> measure_tradeoff_sweep(
    const Instance& instance, const Realization& actual, double delta_min,
    double delta_max, int points_per_algorithm);

}  // namespace rdp
