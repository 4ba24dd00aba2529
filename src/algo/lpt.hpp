// Longest Processing Time first (Graham 1969): List Scheduling over tasks
// sorted by non-increasing weight. Offline approximation ratio
// 4/3 - 1/(3m) on P||Cmax.
#pragma once

#include <span>
#include <vector>

#include "algo/list_scheduling.hpp"
#include "core/types.hpp"

namespace rdp {

/// Task ids sorted by non-increasing weight; ties break toward the smaller
/// id so the order (and thus every LPT-based result) is deterministic.
[[nodiscard]] std::vector<TaskId> lpt_order(std::span<const Time> weights);

/// LPT schedule of `weights` on `num_machines` machines.
[[nodiscard]] GreedyScheduleResult lpt_schedule(std::span<const Time> weights,
                                                MachineId num_machines);

/// Graham's offline LPT approximation guarantee, 4/3 - 1/(3m).
[[nodiscard]] double lpt_guarantee(MachineId num_machines);

}  // namespace rdp
