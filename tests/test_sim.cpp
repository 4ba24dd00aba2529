// Tests for the SimEvent queue order, the machine ready heap, the shared
// dispatch kernel and the online semi-clairvoyant dispatcher.
#include <gtest/gtest.h>
#include <algorithm>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "check/invariants.hpp"
#include "check/reference_dispatcher.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/validate.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
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
// std::stable_sort's temporary buffer comes from the nothrow form and goes
// back through operator delete, so that form must use malloc too: under
// AddressSanitizer its own nothrow new would not match the free() below.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
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

// top() is what the next pop() returns, under every tie rule; the
// failure and speculative loops read it to decide whether a finish's free
// event would be popped next.
TEST(SimEventQueue, TopIsTheNextPop) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Xoshiro256 rng(seed);
    SimEventQueue q;
    std::uint64_t seq = 0;
    for (int op = 0; op < 1000; ++op) {
      if (q.empty() || rng.next_below(100) < 55) {
        q.push(SimEvent{static_cast<Time>(rng.next_below(4)),
                        static_cast<std::uint8_t>(rng.next_below(3)),
                        static_cast<MachineId>(rng.next_below(6)),
                        static_cast<TaskId>(seq), 0, seq});
        ++seq;
      } else {
        const SimEvent top = q.top();
        const std::size_t size = q.size();
        const SimEvent popped = q.pop();
        ASSERT_EQ(top.seq, popped.seq) << "seed " << seed << " op " << op;
        ASSERT_EQ(q.size(), size - 1);
      }
    }
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
                          drain_schedule, &drain_trace);
  Schedule zero_schedule;
  DispatchTrace zero_trace;
  const DispatchKernelStats zero =
      run_dispatch_kernel("test", inst, p, r, priority, zeros, initial, speeds, ws,
                          zero_schedule, &zero_trace);

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
                              schedule, &trace);
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
  EXPECT_TRUE(check::check_invariants(inst, p, r, d.schedule).empty());
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
  EXPECT_TRUE(check::check_invariants(inst, p, r, d.schedule).empty());
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

// --- Drain dispatch by placement shape -------------------------------------
// Disjoint replica sets on identical machines, all idle at 0, take the
// shape path (sim/shape_dispatch): per-set list scheduling, then the
// trace derived from the schedule. It must write what the retained
// oracle writes, bit for bit.

/// The three disjoint shapes: singletons; contiguous blocks of 3, 1, 5,
/// 2 and 7 machines in turn over machines 1..m-1, so machine 0 is in no
/// set when m > 1; and full replication.
std::vector<std::pair<const char*, Placement>> disjoint_shapes(std::size_t n,
                                                               MachineId m) {
  std::vector<MachineId> machine_of(n);
  for (std::size_t j = 0; j < n; ++j) {
    machine_of[j] = static_cast<MachineId>((j * 7 + 3) % m);
  }
  std::vector<std::vector<MachineId>> blocks;
  const MachineId sizes[] = {3, 1, 5, 2, 7};
  for (MachineId first = m > 1 ? 1 : 0, k = 0; first < m; ++k) {
    const MachineId last = std::min<MachineId>(m, first + sizes[k % 5]);
    std::vector<MachineId>& block = blocks.emplace_back();
    for (MachineId i = first; i < last; ++i) block.push_back(i);
    first = last;
  }
  std::vector<std::vector<MachineId>> grouped(n);
  for (std::size_t j = 0; j < n; ++j) grouped[j] = blocks[(j * 5 + 1) % blocks.size()];
  std::vector<std::pair<const char*, Placement>> shapes;
  shapes.emplace_back("singleton", Placement::singleton(machine_of, m));
  shapes.emplace_back("uneven groups", Placement(std::move(grouped), m));
  shapes.emplace_back("everywhere", Placement::everywhere(n, m));
  return shapes;
}

/// Schedule bytes and every trace event's bytes.
void expect_bit_identical(const DispatchResult& a, const DispatchResult& b,
                          const std::string& where) {
  const auto same_bytes = [](const auto& x, const auto& y) {
    // memcmp's pointers must not be null, even for zero bytes.
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  EXPECT_TRUE(same_bytes(a.schedule.assignment.machine_of,
                         b.schedule.assignment.machine_of))
      << where;
  EXPECT_TRUE(same_bytes(a.schedule.start, b.schedule.start)) << where;
  EXPECT_TRUE(same_bytes(a.schedule.finish, b.schedule.finish)) << where;
  ASSERT_EQ(a.trace.size(), b.trace.size()) << where;
  for (std::size_t k = 0; k < a.trace.size(); ++k) {
    const DispatchEvent& x = a.trace.events[k];
    const DispatchEvent& y = b.trace.events[k];
    ASSERT_TRUE(std::memcmp(&x.when, &y.when, sizeof(Time)) == 0 && x.task == y.task &&
                x.machine == y.machine &&
                std::memcmp(&x.actual, &y.actual, sizeof(Time)) == 0)
        << where << ": trace event " << k;
  }
}

/// dispatch_online on one realization, recording whether a shape path
/// served it.
DispatchResult dispatch_counting_shape(const Instance& inst, const Placement& p,
                                       const Realization& r,
                                       const std::vector<TaskId>& priority,
                                       std::uint64_t& by_shape) {
  obs::MetricsRegistry registry;
  DispatchResult result;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    result = dispatch_online(inst, p, r, priority);
  }
  by_shape = registry.counter("sim.dispatch.by_shape").value();
  return result;
}

struct ShapeCase {
  const char* name;
  std::size_t n;
  MachineId m;
  /// Actual duration of task j given a uniform draw u in [0, 1).
  Time (*duration)(std::size_t j, double u);
};

class DispatchShape : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(DispatchShape, MatchesTheOracleOnEveryShape) {
  const ShapeCase& c = GetParam();
  Xoshiro256 rng(c.n * 131 + c.m);
  std::vector<Time> estimates(c.n);
  for (Time& e : estimates) e = 1.0 + 9.0 * rng.next_double();
  const Instance inst = Instance::from_estimates(estimates, c.m, 2.0);
  Realization r;
  for (std::size_t j = 0; j < c.n; ++j) {
    r.actual.push_back(c.duration(j, rng.next_double()));
  }
  for (const PriorityRule rule :
       {PriorityRule::kLongestEstimateFirst, PriorityRule::kInputOrder}) {
    const auto priority = make_priority(inst, rule);
    for (const auto& [name, p] : disjoint_shapes(c.n, c.m)) {
      const std::string where = std::string(c.name) + ", " + name;
      std::uint64_t by_shape = 0;
      const DispatchResult fast = dispatch_counting_shape(inst, p, r, priority, by_shape);
      EXPECT_EQ(by_shape, 1u) << where;
      expect_bit_identical(fast, check::reference_dispatch_online(inst, p, r, priority),
                           where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DispatchShape,
    ::testing::Values(
        // A machine runs zero-length tasks back to back at one instant.
        ShapeCase{"zero-length tasks", 300, 12,
                  [](std::size_t j, double u) {
                    return j % 3 == 0 ? 0.0 : std::floor(1 + 5 * u);
                  }},
        // Buckets of far more than 32 events at one start.
        ShapeCase{"mostly zero-length", 2000, 6,
                  [](std::size_t j, double u) { return j % 10 == 0 ? 1 + u : 0.0; }},
        // Starts tie across machines.
        ShapeCase{"all-equal durations", 257, 10,
                  [](std::size_t, double) { return 2.0; }},
        ShapeCase{"one machine", 50, 1,
                  [](std::size_t j, double u) { return j % 4 == 0 ? 0.0 : 1 + u; }},
        // Sets of 3, 5 and 7 machines, and 129 under full replication.
        ShapeCase{"130 machines", 1000, 130,
                  [](std::size_t, double u) { return 0.5 + 4 * u; }},
        ShapeCase{"no tasks", 0, 4, [](std::size_t, double u) { return u; }},
        ShapeCase{"one task", 1, 5, [](std::size_t, double u) { return 1 + u; }}),
    [](const ::testing::TestParamInfo<ShapeCase>& shape_case) {
      std::string name = shape_case.param.name;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// All-zero durations put every start at 0: one bucket of n events, which
// must cost one stable sort, not an insertion pass per event.
TEST(DispatchShapePath, AllZeroDurationsAtScaleStayFast) {
  const std::size_t n = 200'000;
  const MachineId m = 16;
  const Instance inst = Instance::from_estimates(std::vector<Time>(n, 1.0), m, 1.0);
  const Realization r{std::vector<Time>(n, 0.0)};
  std::vector<TaskId> priority(n);
  for (std::size_t j = 0; j < n; ++j) priority[j] = static_cast<TaskId>((j * 7919) % n);
  for (const auto& [name, p] : disjoint_shapes(n, m)) {
    const auto begin = std::chrono::steady_clock::now();
    const DispatchResult d = dispatch_online(inst, p, r, priority);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    EXPECT_LT(seconds, 5.0) << name;
    // Each task runs on its set's lowest machine at 0; the trace lists them
    // by machine, each machine's in priority order.
    ASSERT_EQ(d.trace.size(), n) << name;
    for (std::size_t k = 1; k < n; ++k) {
      const DispatchEvent& prev = d.trace.events[k - 1];
      const DispatchEvent& cur = d.trace.events[k];
      ASSERT_EQ(cur.when, 0.0) << name;
      ASSERT_LE(prev.machine, cur.machine) << name << ": event " << k;
    }
    std::vector<std::size_t> rank(n);
    for (std::size_t k = 0; k < n; ++k) rank[priority[k]] = k;
    for (std::size_t k = 1; k < n; ++k) {
      const DispatchEvent& prev = d.trace.events[k - 1];
      const DispatchEvent& cur = d.trace.events[k];
      if (prev.machine == cur.machine) {
        ASSERT_LT(rank[prev.task], rank[cur.task]) << name << ": event " << k;
      }
    }
  }
}

// Every rejection the shape path can meet throws the kernel path's message.
TEST(DispatchShapePath, RejectsWithTheKernelMessages) {
  const Instance inst = five_tasks(2);
  const Placement p = Placement::in_groups({0, 1, 0, 1, 0}, 2, 2);
  const Realization r = exact_realization(inst);
  const std::vector<TaskId> priority{0, 1, 2, 3, 4};
  const auto message = [](auto&& call) {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("(accepted)");
  };
  struct Bad {
    const char* what;
    Placement placement;
    Realization actual;
    std::vector<TaskId> priority;
  };
  Realization nan = r, negative = r, inf = r;
  nan.actual[2] = std::numeric_limits<Time>::quiet_NaN();
  negative.actual[4] = -1.0;
  inf.actual[0] = std::numeric_limits<Time>::infinity();
  const Bad cases[] = {
      {"placement size mismatch", Placement::singleton({0, 1, 0}, 2), r, priority},
      {"different machine count", Placement::everywhere(5, 3), r, priority},
      {"realization size mismatch", p, Realization{{1.0, 2.0}}, priority},
      {"priority must cover every task", p, r, {0, 1, 2}},
      {"priority is not a permutation", p, r, {0, 1, 2, 3, 7}},
      {"priority is not a permutation", p, r, {0, 1, 2, 1, 4}},
      {"NaN duration", p, nan, priority},
      {"negative duration", p, negative, priority},
      {"infinite duration", p, inf, priority},
  };
  for (const Bad& bad : cases) {
    std::uint64_t by_shape = 0;
    const std::string shape = message([&] {
      (void)dispatch_counting_shape(inst, bad.placement, bad.actual, bad.priority,
                                    by_shape);
    });
    const std::string kernel = message([&] {
      SimWorkspace ws;
      Schedule schedule;
      DispatchTrace trace;
      (void)run_dispatch_kernel("dispatch_online", inst, bad.placement, bad.actual,
                                bad.priority, {}, {}, {}, ws, schedule, &trace);
    });
    EXPECT_EQ(shape, kernel) << bad.what;
    EXPECT_EQ(shape.rfind("dispatch_online: ", 0), 0u) << bad.what << ": " << shape;
  }
  // Both duration and permutation faults: the first bad rank decides, as
  // in the kernel's build pass.
  EXPECT_NE(message([&] { (void)dispatch_online(inst, p, nan, {2, 2, 1, 3, 4}); })
                .find("actual durations"),
            std::string::npos);
}

// Overlapping sets, speeds and initial loads keep the kernel.
TEST(DispatchShapePath, OnlyDisjointUnitSpeedIdleStartsTakeTheShapePath) {
  const Instance inst = five_tasks(3);
  const Realization r = exact_realization(inst);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  const Placement everywhere = Placement::everywhere(5, 3);
  const Placement overlapping({{0, 1}, {1, 2}, {0, 1}, {2}, {0}}, 3);
  const auto served_by_shape = [&](const Placement& p, std::vector<Time> initial,
                                   std::vector<double> speeds) {
    obs::MetricsRegistry registry;
    obs::ObservabilityScope scope(&registry, nullptr);
    (void)dispatch_online(inst, p, r, priority, std::move(initial), std::move(speeds));
    EXPECT_EQ(registry.counter("sim.dispatch.calls").value(), 1u);
    return registry.counter("sim.dispatch.by_shape").value();
  };
  EXPECT_EQ(served_by_shape(everywhere, {}, {}), 1u);
  EXPECT_EQ(served_by_shape(overlapping, {}, {}), 0u);
  EXPECT_EQ(served_by_shape(everywhere, {0.0, 1.0, 0.0}, {}), 0u);
  EXPECT_EQ(served_by_shape(everywhere, {}, {1.0, 2.0, 1.0}), 0u);
}

// --- Schedule-only dispatch ----------------------------------------------

/// What one call leaves behind: the schedule, every sim.dispatch.* metric
/// and the flight recording.
struct ObservedDispatch {
  Schedule schedule;
  std::string metrics;
  std::vector<obs::TimelineEvent> timeline;
};

template <typename Dispatch>
ObservedDispatch observe_dispatch(std::size_t n, Dispatch&& dispatch) {
  obs::MetricsRegistry registry;
  obs::TimelineRecorder recorder(2 * n + 1);
  ObservedDispatch out;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    obs::TimelineScope timeline(&recorder);
    out.schedule = dispatch();
  }
  out.metrics = registry.snapshot().to_json();
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    out.timeline.push_back(recorder.event(i));
  }
  return out;
}

// dispatch_online_schedule is dispatch_online without the trace: the same
// schedule bytes on the shape path and on the kernel (overlapping sets,
// initial loads, speeds), the same metrics, and under a recorder the same
// events, derived from the schedule. Tied starts and zero-length tasks
// test the derivation's (start, machine, priority) order.
TEST(DispatchScheduleOnly, MatchesDispatchOnlineOnEveryPath) {
  constexpr std::size_t kN = 200;
  constexpr MachineId kM = 9;
  Xoshiro256 rng(77);
  std::vector<Time> estimates(kN);
  for (Time& e : estimates) e = 1.0 + 9.0 * rng.next_double();
  const Instance inst = Instance::from_estimates(estimates, kM, 2.0);
  Realization tied;
  for (std::size_t j = 0; j < kN; ++j) {
    tied.actual.push_back(j % 4 == 0 ? 0.0 : std::floor(1 + 4 * rng.next_double()));
  }
  Realization drawn;
  for (std::size_t j = 0; j < kN; ++j) {
    drawn.actual.push_back(estimates[j] * (0.6 + rng.next_double()));
  }
  std::vector<std::vector<MachineId>> pairs(kN);
  for (std::size_t j = 0; j < kN; ++j) {
    const auto i = static_cast<MachineId>(j % kM);
    pairs[j] = {i, static_cast<MachineId>((i + 1) % kM)};
    std::sort(pairs[j].begin(), pairs[j].end());
  }
  auto shapes = disjoint_shapes(kN, kM);
  shapes.emplace_back("overlapping pairs", Placement(std::move(pairs), kM));
  const std::vector<Time> initial{0.0, 2.0, 0.0, 1.0, 0.0, 0.0, 3.0, 0.0, 0.5};
  const std::vector<double> speeds{1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 4.0, 1.0, 1.5};
  struct Machines {
    const char* name;
    std::span<const Time> initial;
    std::span<const double> speeds;
  };
  const Machines machine_cases[] = {{"idle unit-speed", {}, {}},
                                    {"initial loads", initial, {}},
                                    {"speeds", {}, speeds}};
  for (const PriorityRule rule :
       {PriorityRule::kLongestEstimateFirst, PriorityRule::kInputOrder}) {
    const auto priority = make_priority(inst, rule);
    for (const auto& [name, p] : shapes) {
      for (const Realization* r : {&tied, &drawn}) {
        for (const Machines& machines : machine_cases) {
          const std::string where = std::string(name) + ", " + machines.name;
          const ObservedDispatch full = observe_dispatch(kN, [&] {
            SimWorkspace ws;
            DispatchResult result;
            dispatch_online(inst, p, *r, priority, machines.initial, machines.speeds,
                            ws, result);
            return result.schedule;
          });
          const ObservedDispatch bare = observe_dispatch(kN, [&] {
            SimWorkspace ws;
            Schedule schedule;
            dispatch_online_schedule(inst, p, *r, priority, machines.initial,
                                     machines.speeds, ws, schedule);
            return schedule;
          });
          EXPECT_EQ(full.schedule.assignment.machine_of,
                    bare.schedule.assignment.machine_of)
              << where;
          EXPECT_EQ(0, std::memcmp(full.schedule.start.data(), bare.schedule.start.data(),
                                   kN * sizeof(Time)))
              << where;
          EXPECT_EQ(0, std::memcmp(full.schedule.finish.data(),
                                   bare.schedule.finish.data(), kN * sizeof(Time)))
              << where;
          EXPECT_EQ(full.metrics, bare.metrics) << where;
          ASSERT_EQ(full.timeline.size(), 2 * kN) << where;
          ASSERT_EQ(bare.timeline.size(), full.timeline.size()) << where;
          for (std::size_t k = 0; k < full.timeline.size(); ++k) {
            const obs::TimelineEvent& x = full.timeline[k];
            const obs::TimelineEvent& y = bare.timeline[k];
            ASSERT_TRUE(std::memcmp(&x.when, &y.when, sizeof(double)) == 0 &&
                        x.task == y.task && x.machine == y.machine && x.kind == y.kind)
                << where << ": timeline event " << k;
          }
        }
      }
    }
  }
}

TEST(DispatchScheduleOnly, ThrowsTheDispatchOnlineMessages) {
  const Instance inst = five_tasks(3);
  const Realization r = exact_realization(inst);
  Realization nan = r;
  nan.actual[2] = std::numeric_limits<Time>::quiet_NaN();
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  const std::vector<TaskId> repeated{0, 1, 2, 1, 4};
  const auto message = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "(no throw)";
  };
  // The shape path and the kernel fallback.
  for (const Placement& p :
       {Placement::everywhere(5, 3), Placement({{0, 1}, {1, 2}, {0, 1}, {2}, {0}}, 3)}) {
    using Bad = std::pair<const Realization*, const std::vector<TaskId>*>;
    for (const auto& [actual, order] : {Bad{&r, &repeated}, Bad{&nan, &priority}}) {
      const std::string full = message([&] {
        SimWorkspace ws;
        DispatchResult result;
        dispatch_online(inst, p, *actual, *order, {}, {}, ws, result);
      });
      const std::string bare = message([&] {
        SimWorkspace ws;
        Schedule schedule;
        dispatch_online_schedule(inst, p, *actual, *order, {}, {}, ws, schedule);
      });
      EXPECT_EQ(bare, full);
      EXPECT_EQ(bare.rfind("dispatch_online: ", 0), 0u) << bare;
    }
  }
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
  EXPECT_TRUE(check::check_invariants(inst, p, r, d.schedule).empty());
  EXPECT_EQ(check_schedule(inst, r, d.schedule, /*require_no_idle=*/true), "");
  EXPECT_DOUBLE_EQ(d.schedule.makespan(),
                   makespan(d.schedule.assignment, r, inst.num_machines()));
}

INSTANTIATE_TEST_SUITE_P(PlacementShapes, DispatcherFeasibility,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace rdp
