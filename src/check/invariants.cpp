#include "check/invariants.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/order.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "exact/lower_bounds.hpp"

namespace rdp::check {

namespace {

bool nearly_equal(Time a, Time b, double tolerance) {
  const Time scale = std::max({std::abs(a), std::abs(b), Time{1}});
  return std::abs(a - b) <= tolerance * scale;
}

void add(std::vector<Violation>& out, std::string invariant, std::string detail) {
  out.push_back(Violation{std::move(invariant), std::move(detail)});
}

std::string task_str(TaskId j) { return "task " + std::to_string(j); }

/// Ranks from a priority permutation; returns false (and reports) when the
/// vector is not a permutation of [0, n).
bool build_ranks(std::size_t n, const std::vector<TaskId>& priority,
                 std::vector<std::uint32_t>& rank, std::vector<Violation>& out) {
  if (priority.size() != n) {
    add(out, "priority-shape",
        "priority covers " + std::to_string(priority.size()) + " tasks, expected " +
            std::to_string(n));
    return false;
  }
  rank.assign(n, UINT32_MAX);
  for (std::uint32_t r = 0; r < priority.size(); ++r) {
    const TaskId j = priority[r];
    if (j >= n || rank[j] != UINT32_MAX) {
      add(out, "priority-shape", "priority is not a permutation");
      return false;
    }
    rank[j] = r;
  }
  return true;
}

}  // namespace

std::string to_string(const Violation& v) { return v.invariant + ": " + v.detail; }

std::vector<Violation> check_invariants(const Instance& instance,
                                        const Placement& placement,
                                        const Realization& actual,
                                        const Schedule& schedule,
                                        const InvariantOptions& options) {
  std::vector<Violation> out;
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  const double tol = options.tolerance;

  // -- Shape ----------------------------------------------------------
  if (placement.num_tasks() != n || placement.num_machines() != m) {
    add(out, "shape", "placement does not match the instance");
    return out;
  }
  if (actual.size() != n) {
    add(out, "shape", "realization covers " + std::to_string(actual.size()) +
                          " tasks, expected " + std::to_string(n));
    return out;
  }
  if (schedule.num_tasks() != n || schedule.start.size() != n ||
      schedule.finish.size() != n) {
    add(out, "shape", "schedule arrays do not match the instance size");
    return out;
  }
  if (!options.extra_duration.empty() && options.extra_duration.size() != n) {
    add(out, "shape", "extra_duration size mismatch");
    return out;
  }
  if (!options.off_placement_ok.empty() && options.off_placement_ok.size() != n) {
    add(out, "shape", "off_placement_ok size mismatch");
    return out;
  }
  if (!options.speeds.empty() && options.speeds.size() != m) {
    add(out, "shape", "speeds size mismatch");
    return out;
  }
  if (!options.arrivals.empty() && options.arrivals.size() != n) {
    add(out, "shape", "arrivals size mismatch");
    return out;
  }

  // -- Per-task checks: assignment, finiteness, duration --------------
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = schedule.assignment[j];
    if (i == kNoMachine || i >= m) {
      add(out, "work-conservation",
          task_str(j) + " is unassigned or assigned to machine >= m");
      continue;
    }
    const bool off_ok =
        !options.off_placement_ok.empty() && options.off_placement_ok[j];
    if (!off_ok && !placement.allows(j, i)) {
      add(out, "placement",
          task_str(j) + " ran on machine " + std::to_string(i) +
              " which holds no replica of its data");
    }
    const Time s = schedule.start[j];
    const Time f = schedule.finish[j];
    if (!std::isfinite(s) || !std::isfinite(f)) {
      add(out, "finite", task_str(j) + " has a non-finite start or finish");
      continue;
    }
    if (s < -tol) {
      add(out, "start-time", task_str(j) + " starts before time 0");
    }
    if (!options.arrivals.empty() && s < options.arrivals[j] &&
        !nearly_equal(s, options.arrivals[j], tol)) {
      std::ostringstream os;
      os << task_str(j) << " starts at " << s << ", before its arrival at "
         << options.arrivals[j];
      add(out, "release", os.str());
    }
    Time work = actual[j];
    if (!options.extra_duration.empty()) work += options.extra_duration[j];
    const double speed = options.speeds.empty() ? 1.0 : options.speeds[i];
    const Time expected = work / speed;
    if (!nearly_equal(f - s, expected, tol)) {
      std::ostringstream os;
      os << task_str(j) << " ran for " << (f - s) << ", expected " << expected;
      add(out, "duration", os.str());
    }
    if (f < s) {
      add(out, "duration", task_str(j) + " finishes before it starts");
    }
  }
  if (!out.empty() &&
      std::any_of(out.begin(), out.end(), [](const Violation& v) {
        return v.invariant == "finite" || v.invariant == "work-conservation";
      })) {
    return out;  // overlap / bound checks would read garbage
  }

  // -- No overlap on any machine: tasks in (start, id) order ----------
  const auto per_machine = schedule.assignment.tasks_per_machine(
      m, order_by_time(schedule.start, SortDirection::kAscending));
  for (MachineId i = 0; i < m; ++i) {
    const std::vector<TaskId>& tasks = per_machine[i];
    for (std::size_t k = 1; k < tasks.size(); ++k) {
      const TaskId prev = tasks[k - 1];
      const TaskId cur = tasks[k];
      const Time scale = std::max({std::abs(schedule.finish[prev]),
                                   std::abs(schedule.start[cur]), Time{1}});
      if (schedule.start[cur] < schedule.finish[prev] - tol * scale) {
        std::ostringstream os;
        os << "machine " << i << ": " << task_str(cur) << " starts at "
           << schedule.start[cur] << " before " << task_str(prev) << " finishes at "
           << schedule.finish[prev];
        add(out, "overlap", os.str());
      }
    }
  }

  // -- Makespan dominates the certified lower bound --------------------
  if (options.check_lower_bound && options.speeds.empty() && n > 0) {
    const Time lb = makespan_lower_bound(actual.actual, m);
    const Time makespan = schedule.makespan();
    if (makespan < lb * (1.0 - tol)) {
      std::ostringstream os;
      os << "makespan " << makespan << " is below the certified OPT lower bound "
         << lb;
      add(out, "lower-bound", os.str());
    }
  }
  return out;
}

std::vector<Violation> check_priority_compliance(const Instance& instance,
                                                 const Placement& placement,
                                                 const Schedule& schedule,
                                                 const std::vector<TaskId>& priority,
                                                 std::span<const Time> arrivals,
                                                 double tolerance) {
  std::vector<Violation> out;
  const std::size_t n = instance.num_tasks();
  std::vector<std::uint32_t> rank;
  if (!build_ranks(n, priority, rank, out)) return out;
  if (schedule.num_tasks() != n || (!arrivals.empty() && arrivals.size() != n)) {
    add(out, "shape", "schedule or arrivals do not match the instance size");
    return out;
  }
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = schedule.assignment[j];
    if (i == kNoMachine) continue;  // reported by check_invariants
    const Time s = schedule.start[j];
    for (TaskId k = 0; k < n; ++k) {
      if (k == j || rank[k] >= rank[j]) continue;
      if (!placement.allows(k, i)) continue;
      if (!arrivals.empty() && arrivals[k] > s) continue;  // not yet released
      const Time scale = std::max({std::abs(schedule.start[k]), std::abs(s), Time{1}});
      if (schedule.start[k] > s + tolerance * scale) {
        std::ostringstream os;
        os << task_str(j) << " (rank " << rank[j] << ") started on machine " << i
           << " at " << s << " while eligible " << task_str(k) << " (rank "
           << rank[k] << ") was still waiting";
        add(out, "priority", os.str());
      }
    }
  }
  return out;
}

std::vector<Violation> check_transfer_priority_compliance(
    const Instance& instance, const Placement& placement, const Schedule& schedule,
    const std::vector<TaskId>& priority, double tolerance) {
  std::vector<Violation> out;
  const std::size_t n = instance.num_tasks();
  std::vector<std::uint32_t> rank;
  if (!build_ranks(n, priority, rank, out)) return out;
  if (schedule.num_tasks() != n) {
    add(out, "shape", "schedule does not match the instance size");
    return out;
  }
  for (TaskId j = 0; j < n; ++j) {
    const MachineId i = schedule.assignment[j];
    if (i == kNoMachine) continue;
    const Time s = schedule.start[j];
    const bool local = placement.allows(j, i);
    for (TaskId k = 0; k < n; ++k) {
      if (k == j) continue;
      const Time scale = std::max({std::abs(schedule.start[k]), std::abs(s), Time{1}});
      if (schedule.start[k] <= s + tolerance * scale) continue;  // not waiting
      const bool k_local = placement.allows(k, i);
      std::ostringstream os;
      if (local) {
        if (k_local && rank[k] < rank[j]) {
          os << "local " << task_str(j) << " (rank " << rank[j]
             << ") started on machine " << i << " while local " << task_str(k)
             << " (rank " << rank[k] << ") waited";
          add(out, "priority-local", os.str());
        }
      } else {
        if (k_local) {
          os << "remote " << task_str(j) << " started on machine " << i
             << " while local " << task_str(k) << " waited";
          add(out, "priority-locality", os.str());
        } else if (rank[k] < rank[j]) {
          os << "remote " << task_str(j) << " (rank " << rank[j]
             << ") started on machine " << i << " while remote " << task_str(k)
             << " (rank " << rank[k] << ") waited";
          add(out, "priority-remote", os.str());
        }
      }
    }
  }
  return out;
}

std::string diff_schedules(const Schedule& a, const Schedule& b) {
  if (a.num_tasks() != b.num_tasks()) {
    return "schedules cover " + std::to_string(a.num_tasks()) + " vs " +
           std::to_string(b.num_tasks()) + " tasks";
  }
  for (TaskId j = 0; j < a.num_tasks(); ++j) {
    if (a.assignment[j] != b.assignment[j]) {
      return task_str(j) + " assigned to machine " +
             std::to_string(a.assignment[j]) + " vs " +
             std::to_string(b.assignment[j]);
    }
    if (a.start[j] != b.start[j]) {
      std::ostringstream os;
      os << task_str(j) << " starts at " << a.start[j] << " vs " << b.start[j];
      return os.str();
    }
    if (a.finish[j] != b.finish[j]) {
      std::ostringstream os;
      os << task_str(j) << " finishes at " << a.finish[j] << " vs " << b.finish[j];
      return os.str();
    }
  }
  return {};
}

void throw_on_violations(const std::vector<Violation>& violations,
                         const std::string& context) {
  if (violations.empty()) return;
  std::string what = context + ": " + std::to_string(violations.size()) +
                     " schedule invariant violation(s)";
  for (const Violation& v : violations) what += "; " + to_string(v);
  throw std::logic_error(what);
}

namespace {

std::atomic<bool>& debug_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("RDP_DEBUG_CHECKS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
  }();
  return flag;
}

}  // namespace

bool debug_checks_enabled() noexcept {
  return debug_flag().load(std::memory_order_relaxed);
}

void set_debug_checks(bool enabled) noexcept {
  debug_flag().store(enabled, std::memory_order_relaxed);
}

}  // namespace rdp::check
