// ABO_Delta (paper, Theorems 7-8): the asymmetric bi-objective algorithm.
// Memory-intensive tasks (S2) are pinned to their pi2 machines;
// processing-time-intensive tasks (S1) are replicated *everywhere* and
// dispatched online with Graham's List Scheduling after the pinned load:
//   makespan <= (2 - 1/m + Delta alpha^2 rho1) * OPT_Cmax
//   memory   <= (1 + m/Delta) rho2             * OPT_Mem.
#pragma once

#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "memaware/sbo.hpp"
#include "sim/online_dispatcher.hpp"

namespace rdp {

class Instance;
struct Realization;

struct AboResult {
  Placement placement;      ///< S2 singleton + S1 everywhere
  Schedule schedule;        ///< timed phase-2 schedule
  DispatchTrace trace;
  std::vector<bool> in_s2;
  Time makespan = 0;        ///< C_max under the realization
  double max_memory = 0;    ///< Mem_max including every S1 replica
  double delta = 0;
  PiSchedules pi;
};

/// Runs both ABO phases against a realization.
[[nodiscard]] AboResult run_abo(const Instance& instance, const Realization& actual,
                                double delta);

}  // namespace rdp
