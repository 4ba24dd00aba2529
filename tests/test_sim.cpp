// Tests for the SimEvent queue order, the machine ready heap, the shared
// dispatch kernel and the online semi-clairvoyant dispatcher.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "rng/rng.hpp"
#include "sim/arena.hpp"
#include "sim/dispatch_kernel.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/ready_heap.hpp"
#include "sim/trace.hpp"
#include "sim/workspace.hpp"

// Counts global allocations while `g_count_allocations` is set, so a test
// can assert that a warmed-up SimEventQueue pushes without allocating.
namespace {
bool g_count_allocations = false;
std::size_t g_allocations = 0;
}  // namespace

// Kept out of line: inlined into a delete-expression, the free() would
// trip GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rdp {
namespace {

// SimEventQueue's tie order: time, then kind (finish < failure < free),
// then machine id among frees, then insertion seq.
TEST(SimEventQueue, OrdersByTimeKindMachineThenSeq) {
  SimEventQueue q;
  std::uint64_t seq = 0;
  const auto push = [&](Time when, std::uint8_t kind, MachineId machine,
                        TaskId task) {
    q.push(SimEvent{when, kind, machine, task, 0, seq++});
  };
  push(2.0, kSimEventFinish, 0, 10);
  push(1.0, kSimEventFree, 3, 20);
  push(1.0, kSimEventFree, 1, 30);
  push(1.0, kSimEventFailure, 2, 40);
  push(1.0, kSimEventFinish, 5, 50);
  push(1.0, kSimEventFinish, 4, 60);
  push(1.0, kSimEventFree, 1, 70);
  EXPECT_EQ(q.size(), 7u);
  for (const TaskId expected : {50u, 60u, 40u, 30u, 70u, 20u, 10u}) {
    EXPECT_EQ(q.pop().task, expected);
  }
  EXPECT_TRUE(q.empty());
}

// Equal (time, kind) finishes pop in seq order: the FIFO guarantee the
// failure and speculative loops rely on for simultaneous completions.
TEST(SimEventQueue, EqualTimesPopInInsertionOrder) {
  SimEventQueue queue;
  std::uint64_t seq = 0;
  for (TaskId task = 0; task < 100; ++task) {
    queue.push(SimEvent{5.0, kSimEventFinish, 0, task, 0, seq++});
  }
  queue.push(SimEvent{1.0, kSimEventFinish, 0, 1000, 0, seq++});
  EXPECT_EQ(queue.pop().task, 1000u);
  for (TaskId task = 0; task < 100; ++task) {
    EXPECT_EQ(queue.pop().task, task) << "FIFO order broken at " << task;
  }
  EXPECT_TRUE(queue.empty());
}

// At one instant every finish pops before every failure and every failure
// before every free, whatever the push order; the frees then pop by
// machine id, not by seq.
TEST(SimEventQueue, EqualTimeKindsThenFreesByMachineId) {
  SimEventQueue q;
  std::uint64_t seq = 0;
  for (const MachineId machine : {7u, 2u, 5u, 0u}) {
    q.push(SimEvent{3.0, kSimEventFree, machine, kNoTask, 0, seq++});
    q.push(SimEvent{3.0, kSimEventFailure, machine, kNoTask, 0, seq++});
    q.push(SimEvent{3.0, kSimEventFinish, machine, machine, 0, seq++});
  }
  for (const MachineId machine : {7u, 2u, 5u, 0u}) {
    const SimEvent e = q.pop();
    EXPECT_EQ(e.kind, kSimEventFinish);
    EXPECT_EQ(e.machine, machine) << "finishes keep push order";
  }
  for (const MachineId machine : {7u, 2u, 5u, 0u}) {
    const SimEvent e = q.pop();
    EXPECT_EQ(e.kind, kSimEventFailure);
    EXPECT_EQ(e.machine, machine) << "failures keep push order";
  }
  for (const MachineId machine : {0u, 2u, 5u, 7u}) {
    const SimEvent e = q.pop();
    EXPECT_EQ(e.kind, kSimEventFree);
    EXPECT_EQ(e.machine, machine) << "frees pop by machine id";
  }
  EXPECT_TRUE(q.empty());
}

// Random interleavings of pushes and pops with quantized times, so every
// tie rule fires often, against an ordered set under SimEventBefore.
TEST(SimEventQueue, MatchesOrderedSetUnderInterleaving) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 rng(seed);
    SimEventQueue q;
    std::set<SimEvent, SimEventBefore> oracle;
    std::uint64_t seq = 0;
    Time now = 0;
    for (int op = 0; op < 2000; ++op) {
      if (oracle.empty() || rng.next_below(100) < 55) {
        const SimEvent e{now + static_cast<Time>(rng.next_below(4)),
                         static_cast<std::uint8_t>(rng.next_below(3)),
                         static_cast<MachineId>(rng.next_below(6)),
                         static_cast<TaskId>(seq), 0, seq};
        ++seq;
        q.push(e);
        oracle.insert(e);
      } else {
        const SimEvent got = q.pop();
        ASSERT_EQ(got.seq, oracle.begin()->seq) << "seed " << seed << " op " << op;
        oracle.erase(oracle.begin());
        now = got.when;
      }
      ASSERT_EQ(q.size(), oracle.size());
    }
    for (const SimEvent& expected : oracle) {
      ASSERT_EQ(q.pop().seq, expected.seq) << "seed " << seed << " (drain)";
    }
    EXPECT_TRUE(q.empty());
  }
}

// reset() keeps the vector's capacity: a workspace reused across runs
// queues its events without allocating once the first run sized it.
TEST(SimEventQueue, ResetKeepsCapacity) {
  SimEventQueue q;
  const auto fill_and_drain = [&q] {
    for (std::uint64_t s = 0; s < 100; ++s) {
      q.push(SimEvent{static_cast<Time>(s % 7), kSimEventFinish, 0,
                      static_cast<TaskId>(s), 0, s});
    }
    while (q.size() > 50) q.pop();
  };
  fill_and_drain();
  q.reset();
  EXPECT_TRUE(q.empty());
  g_allocations = 0;
  g_count_allocations = true;
  fill_and_drain();
  g_count_allocations = false;
  EXPECT_EQ(g_allocations, 0u);
  EXPECT_EQ(q.size(), 50u);
}

TEST(SimWorkspace, BeginRunEmptiesTheEventQueue) {
  SimWorkspace ws;
  ws.events.push(SimEvent{4.0, kSimEventFailure, 1, kNoTask, 0, 0});
  ws.events.push(SimEvent{2.0, kSimEventFree, 0, kNoTask, 0, 1});
  ws.begin_run(8, 2);
  EXPECT_TRUE(ws.events.empty());
  EXPECT_EQ(ws.events.size(), 0u);
}

TEST(ReadyHeap, TopPrefersEarliestThenLowestId) {
  MonotonicArena arena;
  ReadyHeap heap;
  const std::vector<Time> ready{3.0, 1.0, 1.0};
  heap.init(arena, 3, ready);
  EXPECT_EQ(heap.top(), MachineId{1});
  EXPECT_DOUBLE_EQ(heap.top_ready(), 1.0);
  heap.occupy_top(5.0);  // machine 1 busy until 6
  EXPECT_EQ(heap.top(), MachineId{2});
  heap.occupy_top(1.0);  // machine 2 busy until 2; machine 0 (3.0) is later
  EXPECT_EQ(heap.top(), MachineId{2});
  EXPECT_DOUBLE_EQ(heap.top_ready(), 2.0);
}

TEST(ReadyHeap, OccupyTopReturnsInterval) {
  MonotonicArena arena;
  ReadyHeap heap;
  heap.init(arena, 1, {});
  const auto [s, f] = heap.occupy_top(2.5);
  EXPECT_DOUBLE_EQ(s, 0.0);
  EXPECT_DOUBLE_EQ(f, 2.5);
  const auto [s2, f2] = heap.occupy_top(1.0);
  EXPECT_DOUBLE_EQ(s2, 2.5);
  EXPECT_DOUBLE_EQ(f2, 3.5);
  EXPECT_DOUBLE_EQ(heap.top_ready(), 3.5);
}

TEST(ReadyHeap, RetiredMachinesAreSkipped) {
  MonotonicArena arena;
  ReadyHeap heap;
  heap.init(arena, 2, {});
  heap.retire_top();  // machine 0
  ASSERT_FALSE(heap.empty());
  EXPECT_EQ(heap.top(), MachineId{1});
  heap.retire_top();
  EXPECT_TRUE(heap.empty());
}

// push() is how the streaming dispatcher wakes a parked machine; a woken
// machine competes on (ready, id) like any other.
TEST(ReadyHeap, PushReinsertsARetiredMachine) {
  MonotonicArena arena;
  ReadyHeap heap;
  heap.init(arena, 3, {});
  heap.retire_top();      // machine 0 parks
  heap.occupy_top(2.0);   // machine 1 busy until 2
  heap.occupy_top(2.0);   // machine 2 busy until 2
  heap.push(2.0, 0);      // machine 0 woken at 2: wins the tie on id
  EXPECT_EQ(heap.top(), MachineId{0});
  heap.occupy_top(1.0);
  EXPECT_EQ(heap.top(), MachineId{1});
  heap.retire_top();
  heap.push(0.5, 1);      // an earlier ready time beats every id
  EXPECT_EQ(heap.top(), MachineId{1});
  EXPECT_DOUBLE_EQ(heap.top_ready(), 0.5);
}

TEST(ReadyHeap, SelectionOrderMatchesLinearScanOracle) {
  // Occupy, park and wake churn; every top is checked against a naive
  // min-(ready, id) scan over the machines currently in the heap.
  constexpr MachineId kMachines = 5;
  MonotonicArena arena;
  ReadyHeap heap;
  std::vector<Time> ready{2.0, 0.0, 1.0, 0.0, 2.0};
  std::vector<bool> in_heap(kMachines, true);
  heap.init(arena, kMachines, ready);
  std::vector<MachineId> parked;
  for (int step = 0; step < 3000; ++step) {
    std::optional<MachineId> expected;
    for (MachineId i = 0; i < kMachines; ++i) {
      if (in_heap[i] && (!expected || ready[i] < ready[*expected])) expected = i;
    }
    ASSERT_EQ(heap.empty(), !expected.has_value()) << "at step " << step;
    if (expected) {
      ASSERT_EQ(heap.top(), *expected) << "divergence at step " << step;
      ASSERT_DOUBLE_EQ(heap.top_ready(), ready[*expected]);
    }
    if (expected && step % 7 != 3) {
      const Time d = static_cast<double>(1 + (step * 7) % 5);
      heap.occupy_top(d);
      ready[*expected] += d;
    } else if (expected && step % 2 == 1) {
      heap.retire_top();
      in_heap[*expected] = false;
      parked.push_back(*expected);
    } else if (!parked.empty()) {
      const MachineId woken = parked.back();
      parked.pop_back();
      ready[woken] = static_cast<double>(step % 11);
      heap.push(ready[woken], woken);
      in_heap[woken] = true;
    }
  }
}

TEST(DispatchKernel, DrainModeMatchesEveryTaskReleasedAtZero) {
  const Instance inst = Instance::from_estimates(
      {9.0, 7.0, 5.0, 5.0, 4.0, 3.0, 3.0, 2.0, 1.0, 1.0, 1.0, 0.5}, 4, 2.0);
  const Placement p =
      Placement::in_groups({0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 2, 4);
  const Realization r{{18.0, 3.5, 10.0, 2.5, 8.0, 1.5, 6.0, 1.0, 2.0, 0.5, 0.5, 1.0}};
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  const std::vector<Time> initial{0.0, 1.5, 0.0, 4.0};
  const std::vector<double> speeds{1.0, 2.0, 1.0, 0.5};
  const std::vector<Time> zeros(inst.num_tasks(), 0.0);

  SimWorkspace ws;
  Schedule drain_schedule;
  DispatchTrace drain_trace;
  const DispatchKernelStats drain =
      run_dispatch_kernel("test", inst, p, r, priority, {}, initial, speeds, ws,
                          drain_schedule, drain_trace);
  Schedule zero_schedule;
  DispatchTrace zero_trace;
  const DispatchKernelStats zero =
      run_dispatch_kernel("test", inst, p, r, priority, zeros, initial, speeds, ws,
                          zero_schedule, zero_trace);

  EXPECT_EQ(drain_schedule.assignment.machine_of, zero_schedule.assignment.machine_of);
  EXPECT_EQ(drain_schedule.start, zero_schedule.start);
  EXPECT_EQ(drain_schedule.finish, zero_schedule.finish);
  ASSERT_EQ(drain_trace.size(), inst.num_tasks());
  ASSERT_EQ(zero_trace.size(), drain_trace.size());
  for (std::size_t k = 0; k < drain_trace.size(); ++k) {
    EXPECT_EQ(drain_trace.events[k].task, zero_trace.events[k].task) << k;
    EXPECT_EQ(drain_trace.events[k].machine, zero_trace.events[k].machine) << k;
    EXPECT_EQ(drain_trace.events[k].when, zero_trace.events[k].when) << k;
  }
  EXPECT_EQ(drain.peak_backlog, inst.num_tasks());
  EXPECT_EQ(zero.peak_backlog, inst.num_tasks());
  EXPECT_EQ(drain.parks, zero.parks);
  EXPECT_EQ(drain.wakes, 0u);
  EXPECT_EQ(drain.direct_starts, 0u);
  EXPECT_EQ(zero.direct_starts, 0u);
}

TEST(DispatchKernel, ErrorsNameTheCaller) {
  const Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  SimWorkspace ws;
  Schedule schedule;
  DispatchTrace trace;
  try {
    (void)run_dispatch_kernel("some_caller", inst, p, r, {0, 0}, {}, {}, {}, ws,
                              schedule, trace);
    FAIL() << "a repeated task in the priority was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("some_caller: ", 0), 0u) << e.what();
  }
}

Instance five_tasks(MachineId m, double alpha = 1.5) {
  return Instance::from_estimates({5.0, 4.0, 3.0, 2.0, 1.0}, m, alpha);
}

TEST(Dispatcher, SingletonPlacementIsStatic) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::singleton({0, 1, 0, 1, 0}, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d =
      dispatch_online(inst, p, r, make_priority(inst, PriorityRule::kInputOrder));
  EXPECT_EQ(check_assignment(inst, p, d.schedule.assignment), "");
  EXPECT_EQ(check_schedule(inst, r, d.schedule, /*require_no_idle=*/true), "");
  EXPECT_DOUBLE_EQ(d.schedule.makespan(), 9.0);  // 5+3+1 on machine 0
}

TEST(Dispatcher, EverywherePlacementMatchesOnlineLptLoads) {
  // With exact realization, online LPT dispatch over full replication
  // produces the same machine loads as offline LPT.
  const Instance inst = five_tasks(3);
  const Placement p = Placement::everywhere(5, 3);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  const GreedyScheduleResult offline = lpt_schedule(inst.estimates(), 3);
  EXPECT_DOUBLE_EQ(d.schedule.makespan(), offline.makespan);
}

TEST(Dispatcher, GroupPlacementKeepsTasksInTheirGroup) {
  const Instance inst = five_tasks(4);
  const Placement p = Placement::in_groups({0, 1, 0, 1, 0}, 2, 4);
  const Realization r = exact_realization(inst);
  const DispatchResult d =
      dispatch_online(inst, p, r, make_priority(inst, PriorityRule::kInputOrder));
  EXPECT_EQ(check_assignment(inst, p, d.schedule.assignment), "");
  // Tasks 0,2,4 only on machines {0,1}; tasks 1,3 only on {2,3}.
  EXPECT_LT(d.schedule.assignment[0], 2u);
  EXPECT_GE(d.schedule.assignment[1], 2u);
}

TEST(Dispatcher, ReactsToActualTimesNotEstimates) {
  // Two machines, both idle at 0. Task 0 (estimate 10) runs on m0, task 1
  // (estimate 9) on m1. Task 2 should go to whichever finishes first --
  // under the realization, m1's task is slow, so m0 takes task 2.
  Instance inst = Instance::from_estimates({10.0, 9.0, 1.0}, 2, 2.0);
  const Placement p = Placement::everywhere(3, 2);
  Realization r{{5.0, 18.0, 1.0}};
  ASSERT_TRUE(respects_uncertainty(inst, r));
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  EXPECT_EQ(d.schedule.assignment[0], 0u);
  EXPECT_EQ(d.schedule.assignment[1], 1u);
  EXPECT_EQ(d.schedule.assignment[2], 0u);  // m0 idle at 5 < m1 at 18
  EXPECT_DOUBLE_EQ(d.schedule.start[2], 5.0);
}

TEST(Dispatcher, InitialReadyDelaysDispatch) {
  Instance inst = Instance::from_estimates({1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(1, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d =
      dispatch_online(inst, p, r, {0}, std::vector<Time>{4.0, 7.0});
  EXPECT_EQ(d.schedule.assignment[0], 0u);
  EXPECT_DOUBLE_EQ(d.schedule.start[0], 4.0);
}

TEST(Dispatcher, RejectsWrongSizedInitialReady) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  // Too short and too long both die at the seam instead of corrupting the
  // machine heap.
  EXPECT_THROW((void)dispatch_online(inst, p, r, priority, std::vector<Time>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)dispatch_online(inst, p, r, priority, std::vector<Time>{1.0, 2.0, 3.0}),
      std::invalid_argument);
}

TEST(Dispatcher, RejectsNegativeOrNonFiniteInitialReady) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  EXPECT_THROW(
      (void)dispatch_online(inst, p, r, priority, std::vector<Time>{0.0, -1.0}),
      std::invalid_argument);
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  EXPECT_THROW((void)dispatch_online(inst, p, r, priority, std::vector<Time>{0.0, nan}),
               std::invalid_argument);
  const Time inf = std::numeric_limits<Time>::infinity();
  EXPECT_THROW((void)dispatch_online(inst, p, r, priority, std::vector<Time>{inf, 0.0}),
               std::invalid_argument);
}

// Bad durations and speeds are rejected by name before anything runs: a
// NaN duration once came back as a schedule with makespan 70.5.
TEST(Dispatcher, RejectsNonFiniteOrNegativeDurationsAndSpeeds) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::everywhere(5, 2);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  const auto expect_named = [](auto&& call, const char* what) {
    try {
      call();
      ADD_FAILURE() << what << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("dispatch_online: ", 0), 0u) << e.what();
    }
  };
  for (const Time bad : {std::numeric_limits<Time>::quiet_NaN(), Time{-1.0},
                         std::numeric_limits<Time>::infinity()}) {
    Realization r = exact_realization(inst);
    r.actual[3] = bad;
    expect_named([&] { (void)dispatch_online(inst, p, r, priority); },
                 "a bad actual duration");
  }
  const Realization r = exact_realization(inst);
  const double inf = std::numeric_limits<double>::infinity();
  expect_named([&] { (void)dispatch_online(inst, p, r, priority, {}, {1.0, inf}); },
               "an infinite speed");
  expect_named(
      [&] {
        (void)dispatch_online(inst, p, r, priority, {},
                              {std::numeric_limits<double>::quiet_NaN(), 1.0});
      },
      "a NaN speed");
}

TEST(Dispatcher, AcceptsZeroInitialReady) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 2, 1.0);
  const Placement p = Placement::everywhere(2, 2);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  const DispatchResult d =
      dispatch_online(inst, p, r, priority, std::vector<Time>{0.0, 0.0});
  EXPECT_DOUBLE_EQ(d.schedule.start[0], 0.0);
}

TEST(Dispatcher, TraceRecordsEveryDispatch) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::everywhere(5, 2);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  EXPECT_EQ(d.trace.size(), 5u);
  // First two dispatches happen at time 0 on machines 0 and 1.
  EXPECT_DOUBLE_EQ(d.trace.events[0].when, 0.0);
  EXPECT_DOUBLE_EQ(d.trace.events[1].when, 0.0);
  const std::string text = render_trace(d.trace);
  EXPECT_NE(text.find("task 0"), std::string::npos);
}

TEST(Dispatcher, RejectsMachineCountMismatch) {
  // A placement built for more machines than the instance has would
  // otherwise index out of the dispatcher's per-machine tables.
  const Instance inst = five_tasks(2);
  const Placement wide = Placement::everywhere(5, 4);
  const Realization r = exact_realization(inst);
  EXPECT_THROW((void)dispatch_online(inst, wide, r,
                                     make_priority(inst, PriorityRule::kInputOrder)),
               std::invalid_argument);
}

TEST(Dispatcher, RejectsBadPriority) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::everywhere(5, 2);
  const Realization r = exact_realization(inst);
  EXPECT_THROW((void)dispatch_online(inst, p, r, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW((void)dispatch_online(inst, p, r, {0, 0, 1, 2, 3}),
               std::invalid_argument);
}

TEST(Dispatcher, GanttRendersOneRowPerMachine) {
  const Instance inst = five_tasks(3);
  const Placement p = Placement::everywhere(5, 3);
  const Realization r = exact_realization(inst);
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  const std::string gantt = render_gantt(inst, d.schedule, 40);
  EXPECT_NE(gantt.find("m0 |"), std::string::npos);
  EXPECT_NE(gantt.find("m2 |"), std::string::npos);
}

// Property: for every placement shape, the dispatched schedule is feasible
// (assignment within M_j, no overlap, no idling) and its makespan equals
// the analytic max machine load.
class DispatcherFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(DispatcherFeasibility, ScheduleFeasibleAndLoadConsistent) {
  const int shape = GetParam();
  const Instance inst = Instance::from_estimates(
      {9.0, 7.0, 5.0, 5.0, 4.0, 3.0, 3.0, 2.0, 1.0, 1.0, 1.0, 0.5}, 4, 2.0);
  Placement p = [&] {
    switch (shape) {
      case 0: return Placement::singleton({0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}, 4);
      case 1: return Placement::everywhere(12, 4);
      default: return Placement::in_groups({0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}, 2, 4);
    }
  }();
  Realization r{{18.0, 3.5, 10.0, 2.5, 8.0, 1.5, 6.0, 1.0, 2.0, 0.5, 0.5, 1.0}};
  ASSERT_TRUE(respects_uncertainty(inst, r));
  const DispatchResult d = dispatch_online(
      inst, p, r, make_priority(inst, PriorityRule::kLongestEstimateFirst));
  EXPECT_EQ(check_assignment(inst, p, d.schedule.assignment), "");
  EXPECT_EQ(check_schedule(inst, r, d.schedule, /*require_no_idle=*/true), "");
  EXPECT_DOUBLE_EQ(d.schedule.makespan(),
                   makespan(d.schedule.assignment, r, inst.num_machines()));
}

INSTANTIATE_TEST_SUITE_P(PlacementShapes, DispatcherFeasibility,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace rdp
