// The pre-rewrite simulator core, retained verbatim as an oracle. When
// the hot path moved to the calendar queue + struct-of-arrays workspace,
// the old implementation (binary-heap event queues, AoS state, per-run
// allocation) was kept here so that
//
//  * the differential fuzzer can assert the rewritten dispatcher is
//    bit-exact against it on every fuzzed case, and
//  * the ext_sim_throughput bench can measure the speedup honestly: both
//    cores run in the same binary on the same instance.
//
// Next to it sit naive rescan-per-event oracles for the failure,
// speculative, transfer and streaming loops: the simplest algorithm with
// each loop's exact semantics, which the fuzzer holds the production
// loops to bit-for-bit.
//
// Nothing here is used by production code paths.
#pragma once

#include <vector>

#include "core/placement.hpp"
#include "core/types.hpp"
#include "hetero/uniform_machines.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "sim/transfer_dispatcher.hpp"

namespace rdp {
class Instance;
struct Realization;
}  // namespace rdp

namespace rdp::check {

/// Pre-rewrite dispatch_online: hash-map replica-set bucketing, per-queue
/// comparison sorts, and a lazily-invalidated binary-heap machine pool
/// that pushes a fresh entry per occupy. Semantically identical to
/// rdp::dispatch_online; kept as the bit-exactness reference.
[[nodiscard]] DispatchResult reference_dispatch_online(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, std::vector<Time> initial_ready = {},
    std::vector<double> speeds = {});

/// Naive failure-aware dispatcher: the textbook O(n) rescan per event
/// (the shape rdp::dispatch_with_failures had before it served tasks from
/// replica-set queues), kept as an independent oracle. Must reproduce the
/// production dispatcher bit-for-bit on every failure plan.
[[nodiscard]] FailureDispatchResult reference_dispatch_with_failures(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const FailurePlan& plan);

/// Naive speculative dispatcher: an idle machine rescans every task for
/// the best-ranked waiting task it holds a replica of, and otherwise
/// rescans every running task in ascending id order for a backup
/// candidate (latest earliest estimated finish, strict `>` so the lowest
/// id wins ties). The O(n)-per-idle-machine algorithm rdp::
/// dispatch_speculative ran before it indexed running tasks per replica
/// set; must match it bit-for-bit, trace and counters included.
[[nodiscard]] SpeculativeResult reference_dispatch_speculative(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const SpeedProfile& speeds,
    const SpeculationPolicy& policy);

/// Naive locality-aware transfer dispatcher: on each dispatch the next
/// idle machine rescans every task for its best-ranked unscheduled local
/// task and falls back to the best-ranked unscheduled task anywhere,
/// paying the fetch. Must match rdp::dispatch_with_transfers bit-for-bit.
[[nodiscard]] TransferDispatchResult reference_dispatch_with_transfers(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const TransferModel& model);

/// Naive streaming dispatcher: machine i next decides at max(ready_i,
/// earliest arrival of an unstarted task it holds), decisions run in
/// (time, machine id) order, and each takes the best-ranked task the
/// machine holds whose arrival is <= the decision time. peak_backlog is
/// the most arrived-but-unstarted tasks at any arrival instant t, counting
/// the arrivals at t before the starts at t. A rescan of every machine
/// and task per decision, with no parking, waking or admission state;
/// must match rdp::serve_stream bit-for-bit, trace and peak_backlog
/// included.
[[nodiscard]] StreamingDispatchResult reference_serve_stream(
    const Instance& instance, const Placement& placement, const Realization& actual,
    const std::vector<TaskId>& priority, const std::vector<Time>& arrivals,
    std::vector<Time> initial_ready = {}, std::vector<double> speeds = {});

}  // namespace rdp::check
