#include "hetero/uniform_machines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "core/scan.hpp"

namespace rdp {

SpeedProfile::SpeedProfile(std::vector<double> speeds) : speeds_(std::move(speeds)) {
  if (speeds_.empty()) {
    throw std::invalid_argument("SpeedProfile: need at least one machine");
  }
  for (double s : speeds_) {
    if (!(s > 0.0) || !std::isfinite(s)) {
      throw std::invalid_argument("SpeedProfile: speeds must be finite and positive");
    }
  }
}

SpeedProfile SpeedProfile::identical(MachineId num_machines) {
  return SpeedProfile(std::vector<double>(num_machines, 1.0));
}

SpeedProfile SpeedProfile::with_stragglers(MachineId num_machines,
                                           MachineId stragglers,
                                           double straggler_speed) {
  if (stragglers > num_machines) {
    throw std::invalid_argument("SpeedProfile: more stragglers than machines");
  }
  std::vector<double> speeds(num_machines, 1.0);
  for (MachineId i = 0; i < stragglers; ++i) speeds[i] = straggler_speed;
  return SpeedProfile(std::move(speeds));
}

double SpeedProfile::total_speed() const noexcept {
  return std::accumulate(speeds_.begin(), speeds_.end(), 0.0);
}

double SpeedProfile::max_speed() const noexcept {
  return *std::max_element(speeds_.begin(), speeds_.end());
}

Time makespan_uniform(const Assignment& assignment, const Realization& actual,
                      const SpeedProfile& profile) {
  std::vector<Time> finish(profile.size(), 0);
  for (TaskId j = 0; j < assignment.num_tasks(); ++j) {
    const MachineId i = assignment[j];
    if (i == kNoMachine) {
      throw std::invalid_argument("makespan_uniform: incomplete assignment");
    }
    finish.at(i) += actual[j] / profile.speed(i);
  }
  return max_scan(finish);
}

Time makespan_lower_bound_uniform(std::span<const Time> work,
                                  const SpeedProfile& profile) {
  if (work.empty()) return 0;
  std::vector<Time> sorted_work(work.begin(), work.end());
  std::sort(sorted_work.begin(), sorted_work.end(), std::greater<>());
  std::vector<double> sorted_speed = profile.speeds();
  std::sort(sorted_speed.begin(), sorted_speed.end(), std::greater<>());

  // The k heaviest jobs can use at most the k fastest machines' capacity.
  Time bound = 0;
  Time work_prefix = 0;
  double speed_prefix = 0;
  const std::size_t k_max = std::min<std::size_t>(work.size(), sorted_speed.size());
  for (std::size_t k = 0; k < k_max; ++k) {
    work_prefix += sorted_work[k];
    speed_prefix += sorted_speed[k];
    bound = std::max(bound, work_prefix / speed_prefix);
  }
  // Average bound over all machines.
  Time total = 0;
  for (Time w : work) total += w;
  bound = std::max(bound, total / profile.total_speed());
  return bound;
}

GreedyScheduleResult lpt_uniform_schedule(std::span<const Time> work,
                                          const SpeedProfile& profile) {
  const MachineId m = profile.size();
  GreedyScheduleResult result;
  result.assignment = Assignment(work.size());
  result.loads.assign(m, 0);  // loads are *finish times* here

  for (TaskId j : lpt_order(work)) {
    MachineId best = 0;
    Time best_finish = std::numeric_limits<Time>::infinity();
    for (MachineId i = 0; i < m; ++i) {
      const Time finish = result.loads[i] + work[j] / profile.speed(i);
      if (finish < best_finish) {
        best_finish = finish;
        best = i;
      }
    }
    result.assignment.machine_of[j] = best;
    result.loads[best] = best_finish;
  }
  result.makespan = max_scan(result.loads);
  return result;
}

Placement lpt_no_choice_uniform(const Instance& instance,
                                const SpeedProfile& profile) {
  if (profile.size() != instance.num_machines()) {
    throw std::invalid_argument("lpt_no_choice_uniform: speed profile size mismatch");
  }
  const auto estimates = instance.estimates();
  const GreedyScheduleResult lpt = lpt_uniform_schedule(estimates, profile);
  return Placement::singleton(lpt.assignment.machine_of, instance.num_machines());
}

namespace {

UniformStrategyResult run_with(const Instance& instance, const Realization& actual,
                               const SpeedProfile& profile, Placement placement,
                               PriorityRule rule) {
  UniformStrategyResult result;
  result.placement = std::move(placement);
  DispatchResult dispatched =
      dispatch_online(instance, result.placement, actual,
                      make_priority(instance, rule), {}, profile.speeds());
  result.schedule = std::move(dispatched.schedule);
  result.makespan = result.schedule.makespan();
  return result;
}

}  // namespace

UniformStrategyResult run_no_choice_uniform(const Instance& instance,
                                            const Realization& actual,
                                            const SpeedProfile& profile) {
  return run_with(instance, actual, profile,
                  lpt_no_choice_uniform(instance, profile),
                  PriorityRule::kInputOrder);
}

UniformStrategyResult run_no_restriction_uniform(const Instance& instance,
                                                 const Realization& actual,
                                                 const SpeedProfile& profile) {
  if (profile.size() != instance.num_machines()) {
    throw std::invalid_argument(
        "run_no_restriction_uniform: speed profile size mismatch");
  }
  return run_with(instance, actual, profile,
                  Placement::everywhere(instance.num_tasks(), instance.num_machines()),
                  PriorityRule::kLongestEstimateFirst);
}

UniformStrategyResult run_group_uniform(const Instance& instance,
                                        const Realization& actual,
                                        const SpeedProfile& profile,
                                        MachineId num_groups) {
  const MachineId m = instance.num_machines();
  if (profile.size() != m) {
    throw std::invalid_argument("run_group_uniform: speed profile size mismatch");
  }
  if (num_groups == 0 || m % num_groups != 0) {
    throw std::invalid_argument("run_group_uniform: k must divide m");
  }
  // Phase 1: List Scheduling over groups by estimated *finish time*,
  // where a group's capacity is the sum of its members' speeds.
  const MachineId group_size = m / num_groups;
  std::vector<double> capacity(num_groups, 0);
  for (MachineId g = 0; g < num_groups; ++g) {
    for (MachineId o = 0; o < group_size; ++o) {
      capacity[g] += profile.speed(g * group_size + o);
    }
  }
  std::vector<Time> load(num_groups, 0);  // estimated work per group
  std::vector<MachineId> group_of(instance.num_tasks());
  for (TaskId j = 0; j < instance.num_tasks(); ++j) {
    MachineId best = 0;
    Time best_finish = std::numeric_limits<Time>::infinity();
    for (MachineId g = 0; g < num_groups; ++g) {
      const Time finish = (load[g] + instance.estimate(j)) / capacity[g];
      if (finish < best_finish) {
        best_finish = finish;
        best = g;
      }
    }
    group_of[j] = best;
    load[best] += instance.estimate(j);
  }
  return run_with(instance, actual, profile,
                  Placement::in_groups(group_of, num_groups, m),
                  PriorityRule::kInputOrder);
}

}  // namespace rdp
