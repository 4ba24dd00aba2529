// Speculative execution (MapReduce-style backup tasks) -- the paper's
// introduction cites launching the same task multiple times as a way to
// cope with hardware differences at the cost of extra resource usage.
// This dispatcher implements it on uniform machines: when a machine
// idles with no waiting work, it may launch a *duplicate copy* of the
// running task with the latest estimated completion, provided it holds a
// replica of that task's data. The first copy to complete wins; losers
// are killed (their burned machine time is reported as waste).
//
// Replication interacts with speculation twice: it lets the duplicate
// run at all (data must be local), and it determines how many machines
// compete to host it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "hetero/uniform_machines.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
struct Realization;

struct SpeculationPolicy {
  bool enabled = true;
  /// Maximum simultaneous copies per task (>= 1; 1 disables duplication).
  unsigned max_copies = 2;
  /// Only speculate on tasks whose estimated completion is at least this
  /// far past the current time... negative values allow eager duplication
  /// of anything still running. NaN is rejected.
  Time min_estimated_remaining = 0.0;
};

struct SpeculativeResult {
  Schedule schedule;        ///< winning copy of every task
  DispatchTrace trace;      ///< every launch, including killed copies
  std::size_t duplicates_launched = 0;
  std::size_t duplicates_won = 0;  ///< tasks whose winner was a backup copy
  Time wasted_time = 0;            ///< machine time burned by killed copies
  Time makespan = 0;
};

/// Runs speculative dispatch on uniform machines. With
/// `policy.enabled == false` (or max_copies == 1) the result matches
/// dispatch_online with the same speed profile exactly.
[[nodiscard]] SpeculativeResult dispatch_speculative(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const SpeedProfile& speeds,
    const SpeculationPolicy& policy);

}  // namespace rdp
