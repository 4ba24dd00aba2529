// Schedule-invariant validator: mechanical checks that a dispatched
// (Instance, Placement, Schedule, DispatchTrace) tuple actually realizes
// the paper's phase-2 semantics. Every theorem sweep in this repo divides
// a dispatched makespan by a certified optimum; a dispatcher bug that
// produces a subtly-wrong schedule would silently invalidate those
// ratios. These checks make the dispatcher contracts executable:
//
//   * assignment respects the placement (unless a task is explicitly
//     allowed off-placement, e.g. after a refetch or a paid transfer);
//   * no task starts before its release time, when one is given;
//   * no two tasks overlap on a machine;
//   * finish - start equals the realized duration (actual time, plus any
//     declared per-task extra such as a refetch/fetch penalty, divided by
//     the machine's speed);
//   * work is conserved: every task runs exactly once, to completion;
//   * priority compliance: no eligible (released) higher-priority task is
//     still waiting when a lower-priority one starts on an idle machine;
//   * the makespan is at least the certified lower bound on OPT from
//     exact/lower_bounds.hpp (sound for every dispatcher here, since
//     each task's final run takes at least its actual time).
//
// Checks accumulate human-readable Violations instead of throwing, so the
// fuzzer can report every broken invariant of a bad schedule at once.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;
class Placement;
struct Realization;
struct Schedule;
struct DispatchTrace;
struct TransferModel;

namespace check {

/// One broken invariant: a stable machine-readable name plus a
/// human-readable diagnostic.
struct Violation {
  std::string invariant;  ///< e.g. "overlap", "duration", "priority"
  std::string detail;
};

[[nodiscard]] std::string to_string(const Violation& v);

/// Knobs describing what the dispatcher under test was allowed to do.
struct InvariantOptions {
  /// Per-task extra processing time on top of actual[j] (refetch penalty,
  /// transfer fetch time). Empty means no extras.
  std::vector<Time> extra_duration;
  /// Tasks allowed to run on a machine outside their replica set (e.g.
  /// refetched or remotely-fetched tasks). Empty means none are.
  std::vector<bool> off_placement_ok;
  /// Per-machine speed factors (duration = work / speed). Empty = unit.
  std::vector<double> speeds;
  /// Per-task release times (streaming runs): starting before one is a
  /// "release" violation. Empty means every task is released at t = 0.
  std::vector<Time> arrivals;
  /// Check makespan >= makespan_lower_bound(actual, m). Only sound when
  /// speeds are unit (set false for heterogeneous runs).
  bool check_lower_bound = true;
  /// Relative floating-point tolerance for time comparisons.
  double tolerance = 1e-9;
};

/// Runs the structural invariants (shape, placement-respecting
/// assignment, release times, overlap-freedom, duration consistency,
/// work conservation, lower-bound dominance). Returns every violation
/// found; empty == valid.
[[nodiscard]] std::vector<Violation> check_invariants(
    const Instance& instance, const Placement& placement,
    const Realization& actual, const Schedule& schedule,
    const InvariantOptions& options = {});

/// Priority compliance for the plain semi-clairvoyant dispatcher: when
/// task j starts on machine i at time s, no strictly-higher-priority task
/// that machine i could run (replica present) may still be waiting
/// (i.e. start strictly after s). With per-task `arrivals` (streaming
/// runs), task k only counts as waiting at s once arrivals[k] <= s: the
/// List Scheduling greed among admitted tasks that Theorem 4 assumes.
/// Empty arrivals = every task released at t = 0. Sound for
/// dispatch_online, serve_stream and failure-free failure-dispatch runs;
/// not applicable once restarts can put tasks back in the queue.
[[nodiscard]] std::vector<Violation> check_priority_compliance(
    const Instance& instance, const Placement& placement,
    const Schedule& schedule, const std::vector<TaskId>& priority,
    std::span<const Time> arrivals = {}, double tolerance = 1e-9);

/// Priority compliance for the locality-preferring transfer dispatcher:
/// a local start must beat every waiting local task on rank; a remote
/// start is only legal when no local task waits at all, and must beat
/// every waiting remote task on rank.
[[nodiscard]] std::vector<Violation> check_transfer_priority_compliance(
    const Instance& instance, const Placement& placement,
    const Schedule& schedule, const std::vector<TaskId>& priority,
    double tolerance = 1e-9);

/// Byte-level schedule comparison for differential checks: returns an
/// empty string when the schedules are bit-identical (assignment, start,
/// finish compared with ==, no tolerance), otherwise the first mismatch.
[[nodiscard]] std::string diff_schedules(const Schedule& a, const Schedule& b);

/// Throws std::logic_error naming `context` and every violation when the
/// list is non-empty; no-op otherwise.
void throw_on_violations(const std::vector<Violation>& violations,
                         const std::string& context);

/// True when expensive invariant re-validation is wired into the
/// experiment / repro hot paths. Off by default; enabled by the
/// RDP_DEBUG_CHECKS=1 environment variable or set_debug_checks(true)
/// (the CLI's --debug-checks flag). Reading the flag is one relaxed
/// atomic load, so disabled checks cost nothing measurable.
[[nodiscard]] bool debug_checks_enabled() noexcept;
void set_debug_checks(bool enabled) noexcept;

}  // namespace check
}  // namespace rdp
