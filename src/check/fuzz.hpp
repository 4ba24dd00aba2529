// Seeded differential fuzzer for the phase-2 dispatchers. Each seed
// deterministically expands into a random (instance, placement, priority,
// realization, failure plan, transfer model, speed profile) tuple, and
// every dispatcher in sim/ is run against it and cross-validated:
//
//   * dispatch_online must pass every schedule invariant, including
//     priority compliance and lower-bound dominance;
//   * dispatch_with_failures with an empty FailurePlan must be
//     bit-identical to dispatch_online (the tie-break parity the code
//     comments claim, made executable);
//   * dispatch_with_failures with a random plan must match a naive
//     reference implementation bit-for-bit, pass the invariants with
//     refetched tasks allowed off-placement, account every restart in
//     its trace, and never finish a surviving run past its machine's
//     failure time;
//   * dispatch_with_transfers with a zero-cost model must be
//     bit-identical to dispatch_online on full replication, and on
//     arbitrary placements must add exactly zero fetch time; with a
//     random model it must pass the invariants with remote tasks paying
//     exactly the model's fetch, plus locality-preference compliance, and
//     match a naive rescan-every-task reference bit-for-bit;
//   * dispatch_speculative with speculation disabled must be
//     bit-identical to dispatch_online on the same speed profile; with
//     speculation enabled it must never exceed the non-speculative
//     makespan on the same realization, and must match a naive O(n)-scan
//     reference bit-for-bit (schedule, trace, launched/won/wasted) under
//     drawn speeds, stragglers, and tied estimates;
//   * dispatch_online's shape path (disjoint replica sets on identical
//     machines) must match the retained offline oracle bit-for-bit on
//     singleton, uneven-group and full-replication placements built from
//     the case;
//   * serve_stream in drain mode must be bit-identical to dispatch_online,
//     and under staggered arrivals (grid-snapped and integer, so arrivals
//     tie with each other and with machines coming free) must match a
//     naive streaming reference bit-for-bit (schedule, trace, peak
//     backlog) and never start a task before its arrival.
//
// Failing seeds are minimized by binary-search shrinking over the task
// count (a failing case is re-expanded from its seed, truncated to a task
// prefix, and re-checked), and reported as JSONL, one failure per line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/types.hpp"
#include "sim/failures.hpp"
#include "sim/transfer_dispatcher.hpp"

namespace rdp::check {

/// Realization regime for the random-case generator.
enum class FuzzScenario {
  /// Actuals drawn inside the instance's declared alpha band.
  kDefault,
  /// The actual factor band widens across the task index from 1 up to
  /// 1.5x the declared alpha, so late tasks can leave the declared band
  /// -- the drifting/misreported-alpha regime the adaptive estimator
  /// must survive (its cross-check judges against the *realized* alpha).
  kDriftingAlpha,
  /// Actuals (at least 1), failure times and the refetch penalty snapped
  /// to integers after the default draws, so equal-time events --
  /// finishes with finishes, failures and wake-ups -- are common and the
  /// event loops' tie orders are exercised.
  kTies,
};

/// Parses "default" / "drifting-alpha" / "ties" (CLI --scenario flag); throws
/// std::invalid_argument on anything else.
[[nodiscard]] FuzzScenario fuzz_scenario_from_name(const std::string& name);

/// Bounds for the random-case generator.
struct FuzzCaseConfig {
  std::size_t min_tasks = 1;
  std::size_t max_tasks = 24;
  MachineId min_machines = 1;
  MachineId max_machines = 6;
  FuzzScenario scenario = FuzzScenario::kDefault;
};

/// One fully-expanded fuzz input. A pure function of (seed, config): the
/// same pair reproduces the same case on every platform (library RNG).
struct FuzzCase {
  std::uint64_t seed = 0;
  Instance instance;
  Placement placement;             ///< random replica sets, degree in [1, m]
  std::vector<TaskId> priority;    ///< random permutation
  Realization actual;              ///< random realization within the band
  FailurePlan plan;                ///< random fail-stop plan, >= 1 survivor
  TransferModel transfer;          ///< random positive-cost model
  std::vector<double> speeds;      ///< random speeds in [0.5, 2.0]
};

[[nodiscard]] FuzzCase make_fuzz_case(std::uint64_t seed,
                                      const FuzzCaseConfig& config = {});

/// The same case restricted to its first `num_tasks` tasks (placement,
/// priority, and realization projected; machine-level inputs unchanged).
/// Used by the shrinker. Requires 1 <= num_tasks <= case size.
[[nodiscard]] FuzzCase restrict_tasks(const FuzzCase& fuzz_case,
                                      std::size_t num_tasks);

/// One failed cross-check of one seed.
struct FuzzFailure {
  std::uint64_t seed = 0;
  std::size_t num_tasks = 0;
  MachineId num_machines = 0;
  std::string check;   ///< e.g. "failures-empty-plan-parity"
  std::string detail;  ///< first diagnostic from the failing check
  std::size_t shrunk_tasks = 0;  ///< smallest failing task prefix (0 = not shrunk)
};

/// JSONL encoding of a failure (one line, no trailing newline).
[[nodiscard]] std::string to_jsonl_line(const FuzzFailure& failure);

/// Writes one JSONL line per failure. Throws std::runtime_error when the
/// file cannot be opened.
void save_jsonl_report(const std::string& path,
                       const std::vector<FuzzFailure>& failures);

/// Runs every cross-check against one case. Empty result == clean seed.
/// `shrunk_tasks` is left 0; the driver fills it in after shrinking.
[[nodiscard]] std::vector<FuzzFailure> run_fuzz_case(const FuzzCase& fuzz_case);

/// Smallest task-prefix size of `fuzz_case` for which `fails` still
/// returns true, found by binary search (assumes the full case fails).
[[nodiscard]] std::size_t shrink_failing_case(
    const FuzzCase& fuzz_case,
    const std::function<bool(const FuzzCase&)>& fails);

struct FuzzOptions {
  std::uint64_t start_seed = 1;
  std::size_t seeds = 500;
  std::size_t jobs = 1;        ///< 0 = hardware concurrency
  bool shrink = true;          ///< minimize failing seeds by task count
  FuzzCaseConfig gen;
  std::ostream* log = nullptr; ///< progress lines, may be null
};

struct FuzzSummary {
  std::size_t cases = 0;       ///< seeds fuzzed
  std::size_t checks = 0;      ///< individual cross-checks executed
  std::vector<FuzzFailure> failures;  ///< sorted by seed, deterministic
};

/// Fuzzes seeds [start_seed, start_seed + seeds) with `jobs` workers.
/// Deterministic: the summary (including failure order) is independent of
/// the worker count.
[[nodiscard]] FuzzSummary run_fuzz(const FuzzOptions& options);

/// Number of cross-checks run_fuzz_case() executes per seed (for
/// reporting; kept in one place so the CLI summary stays honest).
[[nodiscard]] std::size_t checks_per_case() noexcept;

}  // namespace rdp::check
