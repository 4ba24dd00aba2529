// Uniform (related) machines -- Q||Cmax: machine i runs at speed s_i, so
// a task of work w occupies it for w/s_i. This extends the paper's model
// toward its motivating scenarios where uncertainty partly lives in the
// *machines* (stragglers, heterogeneous nodes) rather than the tasks.
// The two-phase structure carries over unchanged: placement by estimated
// work, online dispatch driven by machine-idle events with speed-scaled
// durations.
#pragma once

#include <vector>

#include "algo/list_scheduling.hpp"
#include "core/placement.hpp"
#include "core/schedule.hpp"
#include "core/types.hpp"
#include "sim/online_dispatcher.hpp"

namespace rdp {

class Instance;
struct Realization;

/// Per-machine speeds; validated finite and positive on construction.
class SpeedProfile {
 public:
  explicit SpeedProfile(std::vector<double> speeds);

  /// m identical machines (speed 1) -- the degenerate base model.
  static SpeedProfile identical(MachineId num_machines);

  /// All speed 1 except `stragglers` machines at `straggler_speed`
  /// (machines 0..stragglers-1 are the slow ones).
  static SpeedProfile with_stragglers(MachineId num_machines, MachineId stragglers,
                                      double straggler_speed);

  [[nodiscard]] MachineId size() const noexcept {
    return static_cast<MachineId>(speeds_.size());
  }
  [[nodiscard]] double speed(MachineId i) const { return speeds_.at(i); }
  [[nodiscard]] const std::vector<double>& speeds() const noexcept { return speeds_; }
  [[nodiscard]] double total_speed() const noexcept;

 private:
  std::vector<double> speeds_;
};

/// Analytic lower bound on OPT for Q||Cmax: max over the k largest jobs
/// of (their total work) / (total speed of the k fastest machines), for
/// k = 1..m, and the average bound total/total_speed.
[[nodiscard]] Time makespan_lower_bound_uniform(std::span<const Time> work,
                                                const SpeedProfile& profile);

/// Offline LPT for uniform machines: jobs in non-increasing work order,
/// each to the machine minimizing its *finish time* load_i + w/s_i.
/// 2-approximation on Q||Cmax (Gonzalez, Ibarra & Sahni style bound).
[[nodiscard]] GreedyScheduleResult lpt_uniform_schedule(std::span<const Time> work,
                                                        const SpeedProfile& profile);

/// Phase 1 for the no-choice strategy on uniform machines: LPT-uniform
/// over the estimates, singleton replica sets.
[[nodiscard]] Placement lpt_no_choice_uniform(const Instance& instance,
                                              const SpeedProfile& profile);

/// Full two-phase runs on uniform machines (phase 2 = dispatch_online
/// with the speed profile).
struct UniformStrategyResult {
  Placement placement;
  Schedule schedule;
  Time makespan = 0;
};

/// No replication: LPT-uniform pinning, static phase 2.
[[nodiscard]] UniformStrategyResult run_no_choice_uniform(const Instance& instance,
                                                          const Realization& actual,
                                                          const SpeedProfile& profile);

/// Full replication: online LPT dispatch over estimates with speeds.
[[nodiscard]] UniformStrategyResult run_no_restriction_uniform(
    const Instance& instance, const Realization& actual, const SpeedProfile& profile);

/// Group replication: machines are split into k contiguous groups of
/// equal *cardinality* (k divides m); tasks go to groups by List
/// Scheduling on estimated finish time over group capacities, then
/// dispatch online within groups with speeds.
[[nodiscard]] UniformStrategyResult run_group_uniform(const Instance& instance,
                                                      const Realization& actual,
                                                      const SpeedProfile& profile,
                                                      MachineId num_groups);

}  // namespace rdp
