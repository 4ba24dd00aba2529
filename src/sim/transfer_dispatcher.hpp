// Locality-aware dispatch with data-transfer costs. The paper's model
// makes remote execution *impossible* ("prohibitive overhead"); this
// dispatcher makes the overhead a parameter instead: a machine may run a
// task whose data it does not hold by first fetching it, paying
// size / bandwidth extra time. Replication then trades memory against
// both adaptation (as in the paper) and fetch traffic -- and as bandwidth
// grows the value of replication must vanish, a crossover the
// ext_transfer_crossover bench maps out.
//
// Dispatch rule (Hadoop-style locality preference): when a machine
// becomes idle it takes its highest-priority *local* waiting task if one
// exists; otherwise its highest-priority remote task, paying the fetch.
#pragma once

#include <vector>

#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "sim/trace.hpp"

namespace rdp {

class Instance;
struct Realization;

struct TransferModel {
  /// Size units transferred per time unit; must be > 0. Infinite
  /// bandwidth makes every task local-equivalent.
  double bandwidth = 1.0;
  /// Fixed per-fetch latency added on top of size/bandwidth; must be
  /// finite and >= 0.
  Time latency = 0.0;
};

struct TransferDispatchResult {
  Schedule schedule;
  DispatchTrace trace;
  std::size_t remote_runs = 0;   ///< dispatches that paid a fetch
  Time transfer_time = 0;        ///< total time spent fetching
  Time makespan = 0;
};

/// Runs locality-aware dispatch. Every task may run anywhere; placement
/// only determines which runs are free (local) vs paid (remote).
[[nodiscard]] TransferDispatchResult dispatch_with_transfers(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const TransferModel& model);

}  // namespace rdp
