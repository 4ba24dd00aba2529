#include "memaware/pareto.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "memaware/abo.hpp"
#include "memaware/sabo.hpp"

namespace rdp {

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  const bool no_worse = a.makespan <= b.makespan && a.memory <= b.memory;
  const bool better = a.makespan < b.makespan || a.memory < b.memory;
  return no_worse && better;
}

std::vector<ParetoPoint> pareto_filter(std::vector<ParetoPoint> points) {
  std::vector<ParetoPoint> front;
  for (const ParetoPoint& candidate : points) {
    bool dominated = false;
    for (const ParetoPoint& other : points) {
      if (dominates(other, candidate)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(candidate);
  }
  std::sort(front.begin(), front.end(), [](const ParetoPoint& a, const ParetoPoint& b) {
    if (a.makespan != b.makespan) return a.makespan < b.makespan;
    return a.memory < b.memory;
  });
  // Drop duplicate (makespan, memory) pairs that survive mutual
  // non-domination.
  front.erase(std::unique(front.begin(), front.end(),
                          [](const ParetoPoint& a, const ParetoPoint& b) {
                            return a.makespan == b.makespan &&
                                   a.memory == b.memory;
                          }),
              front.end());
  return front;
}

std::vector<ParetoPoint> measure_tradeoff_sweep(const Instance& instance,
                                                const Realization& actual,
                                                double delta_min, double delta_max,
                                                int points_per_algorithm) {
  if (!(delta_min > 0.0) || delta_min > delta_max || points_per_algorithm < 2) {
    throw std::invalid_argument("measure_tradeoff_sweep: bad sweep parameters");
  }
  std::vector<ParetoPoint> points;
  const double log_lo = std::log(delta_min);
  const double log_hi = std::log(delta_max);
  for (int i = 0; i < points_per_algorithm; ++i) {
    const double t =
        static_cast<double>(i) / static_cast<double>(points_per_algorithm - 1);
    const double delta = std::exp(log_lo + t * (log_hi - log_lo));

    const SaboResult sabo = run_sabo(instance, delta);
    points.push_back(ParetoPoint{delta, "SABO",
                                 sabo_makespan(sabo, instance, actual),
                                 sabo.max_memory});

    const AboResult abo = run_abo(instance, actual, delta);
    points.push_back(ParetoPoint{delta, "ABO", abo.makespan, abo.max_memory});
  }
  return points;
}

}  // namespace rdp
