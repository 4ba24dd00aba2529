// Tests for src/check/: the schedule-invariant validator and the seeded
// differential fuzzer. The dispatcher parity claims that used to live in
// comments (empty failure plan == dispatch_online, zero-cost transfers ==
// online on full replication) are pinned here bit-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/invariants.hpp"
#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "io/json.hpp"
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/transfer_dispatcher.hpp"

namespace rdp {
namespace {

std::vector<TaskId> identity_priority(std::size_t n) {
  std::vector<TaskId> p(n);
  for (TaskId j = 0; j < n; ++j) p[j] = j;
  return p;
}

bool has_invariant(const std::vector<check::Violation>& violations,
                   const std::string& name) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const check::Violation& v) { return v.invariant == name; });
}

// ---------------------------------------------------------------------
// Invariant validator.

TEST(Invariants, ValidDispatchPasses) {
  const Instance inst = Instance::from_estimates({4.0, 3.0, 2.0, 1.0}, 2, 1.5);
  const Placement p = Placement::everywhere(4, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult run = dispatch_online(inst, p, r, identity_priority(4));
  EXPECT_TRUE(check::check_invariants(inst, p, r, run.schedule).empty());
  EXPECT_TRUE(
      check::check_priority_compliance(inst, p, run.schedule, identity_priority(4))
          .empty());
}

TEST(Invariants, DetectsOverlap) {
  const Instance inst = Instance::from_estimates({2.0, 2.0}, 1, 1.0);
  const Placement p = Placement::everywhere(2, 1);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 0};
  s.start = {0.0, 1.0};  // second task starts while the first still runs
  s.finish = {2.0, 3.0};
  EXPECT_TRUE(has_invariant(check::check_invariants(inst, p, r, s), "overlap"));
}

TEST(Invariants, DetectsWrongDuration) {
  const Instance inst = Instance::from_estimates({2.0}, 1, 1.0);
  const Placement p = Placement::everywhere(1, 1);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(1);
  s.assignment.machine_of = {0};
  s.start = {0.0};
  s.finish = {1.5};  // actual is 2.0
  EXPECT_TRUE(has_invariant(check::check_invariants(inst, p, r, s), "duration"));
}

TEST(Invariants, DetectsOffPlacementRunUnlessAllowed) {
  const Instance inst = Instance::from_estimates({1.0}, 2, 1.0);
  const Placement p = Placement::singleton({0}, 2);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(1);
  s.assignment.machine_of = {1};  // not in M_0
  s.start = {0.0};
  s.finish = {1.0};
  EXPECT_TRUE(has_invariant(check::check_invariants(inst, p, r, s), "placement"));
  check::InvariantOptions allow;
  allow.off_placement_ok = {true};
  EXPECT_TRUE(check::check_invariants(inst, p, r, s, allow).empty());
}

TEST(Invariants, DetectsStartBeforeArrival) {
  const Instance inst = Instance::from_estimates({1.0, 1.0}, 1, 1.0);
  const Placement p = Placement::everywhere(2, 1);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 0};
  s.start = {0.0, 1.0};
  s.finish = {1.0, 2.0};
  check::InvariantOptions released;
  released.arrivals = {0.0, 1.0};  // task 1 starts exactly at its arrival
  EXPECT_TRUE(check::check_invariants(inst, p, r, s, released).empty());
  released.arrivals = {0.5, 1.0};  // task 0 starts before it arrives
  const auto violations = check::check_invariants(inst, p, r, s, released);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations.front().invariant, "release");
  // Without release times every task counts as released at t = 0.
  EXPECT_TRUE(check::check_invariants(inst, p, r, s).empty());
}

TEST(Invariants, DetectsUnassignedTask) {
  const Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  const Placement p = Placement::everywhere(1, 1);
  const Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(1);  // kNoMachine
  s.start = {0.0};
  s.finish = {0.0};
  EXPECT_TRUE(
      has_invariant(check::check_invariants(inst, p, r, s), "work-conservation"));
}

TEST(Invariants, DetectsImpossiblyFastMakespan) {
  // Two 4.0 tasks on one machine cannot finish before t=8, yet the forged
  // schedule claims overlap-free completion by ... running them in
  // parallel on the single machine -- which trips overlap; build a
  // 2-machine case that beats the max-task lower bound instead.
  const Instance inst = Instance::from_estimates({4.0, 1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  Realization r = exact_realization(inst);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 1};
  s.start = {0.0, 0.0};
  s.finish = {2.0, 0.5};  // task 0 "ran" in half its actual time
  const auto violations = check::check_invariants(inst, p, r, s);
  EXPECT_TRUE(has_invariant(violations, "duration"));
  check::InvariantOptions no_duration;
  no_duration.extra_duration = {-2.0, -0.5};  // legitimize the durations
  EXPECT_TRUE(has_invariant(check::check_invariants(inst, p, r, s, no_duration),
                            "lower-bound"));
}

TEST(Invariants, DetectsPriorityInversion) {
  // Task 1 (rank 0, highest) waits while rank-1 task 0 starts at t=0 on a
  // machine that could run task 1.
  const Instance inst = Instance::from_estimates({1.0, 1.0}, 1, 1.0);
  const Placement p = Placement::everywhere(2, 1);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 0};
  s.start = {0.0, 1.0};
  s.finish = {1.0, 2.0};
  const std::vector<TaskId> priority = {1, 0};
  EXPECT_TRUE(has_invariant(
      check::check_priority_compliance(inst, p, s, priority), "priority"));
}

// Release-aware compliance: a higher-rank task only counts as waiting
// once it has arrived. One machine; task 0 (rank 1) starts at t=1 while
// task 1 (rank 0) starts at t=2.
TEST(Invariants, PriorityComplianceCountsOnlyAdmittedTasks) {
  const Instance inst = Instance::from_estimates({1.0, 1.0}, 1, 1.0);
  const Placement p = Placement::everywhere(2, 1);
  Schedule s;
  s.assignment = Assignment(2);
  s.assignment.machine_of = {0, 0};
  s.start = {1.0, 2.0};
  s.finish = {2.0, 3.0};
  const std::vector<TaskId> priority = {1, 0};
  // Task 1 was admitted at t=1, the instant task 0 started: a violation.
  const std::vector<Time> admitted = {0.0, 1.0};
  EXPECT_TRUE(has_invariant(
      check::check_priority_compliance(inst, p, s, priority, admitted), "priority"));
  // Task 1 only arrives at t=2, after task 0 started: compliant.
  const std::vector<Time> not_yet = {0.0, 2.0};
  EXPECT_TRUE(check::check_priority_compliance(inst, p, s, priority, not_yet).empty());
}

TEST(Invariants, DiffSchedulesIsBitExact) {
  Schedule a;
  a.assignment = Assignment(1);
  a.assignment.machine_of = {0};
  a.start = {1.0};
  a.finish = {2.0};
  Schedule b = a;
  EXPECT_TRUE(check::diff_schedules(a, b).empty());
  b.start = {1.0 + 1e-14};  // below any tolerance, still a difference
  EXPECT_FALSE(check::diff_schedules(a, b).empty());
}

TEST(Invariants, ThrowOnViolationsNamesEveryInvariant) {
  const std::vector<check::Violation> violations = {{"overlap", "a"},
                                                    {"duration", "b"}};
  try {
    check::throw_on_violations(violations, "ctx");
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ctx"), std::string::npos);
    EXPECT_NE(what.find("overlap"), std::string::npos);
    EXPECT_NE(what.find("duration"), std::string::npos);
  }
  EXPECT_NO_THROW(check::throw_on_violations({}, "ctx"));
}

TEST(Invariants, DebugChecksFlagRoundTrips) {
  const bool before = check::debug_checks_enabled();
  check::set_debug_checks(true);
  EXPECT_TRUE(check::debug_checks_enabled());
  check::set_debug_checks(false);
  EXPECT_FALSE(check::debug_checks_enabled());
  check::set_debug_checks(before);
}

// ---------------------------------------------------------------------
// Dispatcher parity, pinned bit-exactly over many seeds (the executable
// form of the comment claims in src/sim/failures.cpp).

TEST(DispatcherParity, EmptyFailurePlanMatchesOnlineBitExactly200Seeds) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const check::FuzzCase c = check::make_fuzz_case(seed);
    const DispatchResult online =
        dispatch_online(c.instance, c.placement, c.actual, c.priority);
    const FailureDispatchResult empty_plan = dispatch_with_failures(
        c.instance, c.placement, c.actual, c.priority, FailurePlan{});
    EXPECT_EQ(check::diff_schedules(online.schedule, empty_plan.schedule), "")
        << "seed " << seed;
    EXPECT_EQ(empty_plan.restarts, 0u) << "seed " << seed;
    EXPECT_EQ(empty_plan.refetches, 0u) << "seed " << seed;
  }
}

TEST(DispatcherParity, ZeroCostTransferMatchesOnlineOnFullReplication) {
  TransferModel free_model;
  free_model.bandwidth = std::numeric_limits<double>::infinity();
  free_model.latency = 0.0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const check::FuzzCase c = check::make_fuzz_case(seed);
    const Placement everywhere =
        Placement::everywhere(c.instance.num_tasks(), c.instance.num_machines());
    const DispatchResult online =
        dispatch_online(c.instance, everywhere, c.actual, c.priority);
    const TransferDispatchResult transfer = dispatch_with_transfers(
        c.instance, everywhere, c.actual, c.priority, free_model);
    EXPECT_EQ(check::diff_schedules(online.schedule, transfer.schedule), "")
        << "seed " << seed;
    EXPECT_EQ(transfer.remote_runs, 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Fuzzer machinery.

TEST(Fuzz, CaseGenerationIsDeterministic) {
  const check::FuzzCase a = check::make_fuzz_case(42);
  const check::FuzzCase b = check::make_fuzz_case(42);
  EXPECT_EQ(a.instance.num_tasks(), b.instance.num_tasks());
  EXPECT_EQ(a.priority, b.priority);
  EXPECT_EQ(a.actual.actual, b.actual.actual);
  EXPECT_EQ(a.plan.refetch_penalty, b.plan.refetch_penalty);
  EXPECT_EQ(a.speeds, b.speeds);
  const check::FuzzCase other = check::make_fuzz_case(43);
  EXPECT_TRUE(a.instance.num_tasks() != other.instance.num_tasks() ||
              a.actual.actual != other.actual.actual);
}

TEST(Fuzz, GeneratedCasesAreWellFormed) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const check::FuzzCase c = check::make_fuzz_case(seed);
    ASSERT_GE(c.instance.num_tasks(), 1u);
    ASSERT_GE(c.instance.num_machines(), 1u);
    EXPECT_TRUE(respects_uncertainty(c.instance, c.actual)) << "seed " << seed;
    // At least one machine never fails.
    std::vector<bool> fails(c.instance.num_machines(), false);
    for (const MachineFailure& f : c.plan.failures) fails[f.machine] = true;
    EXPECT_NE(std::count(fails.begin(), fails.end(), false), 0) << "seed " << seed;
    EXPECT_GT(c.transfer.bandwidth, 0.0);
    EXPECT_GE(c.transfer.latency, 0.0);
    EXPECT_EQ(c.speeds.size(), c.instance.num_machines());
  }
}

TEST(Fuzz, RestrictTasksProjectsPrefix) {
  const check::FuzzCase c = check::make_fuzz_case(7);
  ASSERT_GE(c.instance.num_tasks(), 2u);
  const std::size_t k = c.instance.num_tasks() / 2 + 1;
  const check::FuzzCase small = check::restrict_tasks(c, k);
  EXPECT_EQ(small.instance.num_tasks(), k);
  EXPECT_EQ(small.placement.num_tasks(), k);
  EXPECT_EQ(small.priority.size(), k);
  EXPECT_EQ(small.actual.size(), k);
  // Relative priority order of surviving tasks is preserved.
  for (std::size_t a = 0; a < small.priority.size(); ++a) {
    EXPECT_LT(small.priority[a], k);
  }
  EXPECT_THROW((void)check::restrict_tasks(c, 0), std::invalid_argument);
  EXPECT_THROW((void)check::restrict_tasks(c, c.instance.num_tasks() + 1),
               std::invalid_argument);
}

TEST(Fuzz, CleanSeedsProduceNoFailures) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto failures = check::run_fuzz_case(check::make_fuzz_case(seed));
    EXPECT_TRUE(failures.empty())
        << "seed " << seed << ": " << failures.front().check << " -- "
        << failures.front().detail;
  }
}

TEST(Fuzz, RunFuzzSmoke) {
  check::FuzzOptions options;
  options.start_seed = 1;
  options.seeds = 20;
  options.jobs = 1;
  const check::FuzzSummary summary = check::run_fuzz(options);
  EXPECT_EQ(summary.cases, 20u);
  EXPECT_EQ(summary.checks, 20u * check::checks_per_case());
  EXPECT_TRUE(summary.failures.empty());
}

TEST(Fuzz, ParallelRunMatchesSerial) {
  check::FuzzOptions serial;
  serial.start_seed = 100;
  serial.seeds = 12;
  serial.jobs = 1;
  check::FuzzOptions parallel = serial;
  parallel.jobs = 4;
  const check::FuzzSummary a = check::run_fuzz(serial);
  const check::FuzzSummary b = check::run_fuzz(parallel);
  EXPECT_EQ(a.cases, b.cases);
  EXPECT_EQ(a.failures.size(), b.failures.size());
}

TEST(Fuzz, ShrinkFindsMinimalFailingPrefix) {
  // Synthetic predicate: "fails" whenever task 5 is present, so the
  // minimal failing prefix has exactly 6 tasks.
  check::FuzzCase c = check::make_fuzz_case(11);
  while (c.instance.num_tasks() < 10) c = check::make_fuzz_case(c.seed + 1);
  const std::size_t shrunk = check::shrink_failing_case(
      c, [](const check::FuzzCase& candidate) {
        return candidate.instance.num_tasks() >= 6;
      });
  EXPECT_EQ(shrunk, 6u);
  // A predicate true everywhere shrinks to a single task.
  EXPECT_EQ(check::shrink_failing_case(
                c, [](const check::FuzzCase&) { return true; }),
            1u);
}

TEST(Fuzz, JsonlLineRoundTrips) {
  check::FuzzFailure f;
  f.seed = 123;
  f.num_tasks = 9;
  f.num_machines = 3;
  f.check = "failures-reference-differential";
  f.detail = "task 4 starts at 1.5 vs 2.5 \"quoted\"\nnext line";
  f.shrunk_tasks = 4;
  const std::string line = check::to_jsonl_line(f);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per failure
  const JsonValue parsed = parse_json(line);
  EXPECT_EQ(parsed.get_number("seed"), 123.0);
  EXPECT_EQ(parsed.get_number("n"), 9.0);
  EXPECT_EQ(parsed.get_number("m"), 3.0);
  EXPECT_EQ(parsed.get_string("check"), f.check);
  EXPECT_EQ(parsed.get_string("detail"), f.detail);
  EXPECT_EQ(parsed.get_number("shrunk_n"), 4.0);
}

TEST(Fuzz, SaveJsonlReportWritesOneLinePerFailure) {
  check::FuzzFailure f;
  f.seed = 1;
  f.check = "c";
  f.detail = "d";
  const std::string path = ::testing::TempDir() + "/rdp_fuzz_report.jsonl";
  check::save_jsonl_report(path, {f, f});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NO_THROW((void)parse_json(line));
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdp
