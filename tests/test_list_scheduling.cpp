// Tests for the LS/LPT kernels, including the classical Graham guarantees
// verified against the exact optimum on randomized instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/list_scheduling.hpp"
#include "algo/lpt.hpp"
#include "core/instance.hpp"
#include "exact/branch_and_bound.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace rdp {
namespace {

TEST(ListScheduling, AssignsGreedilyToLeastLoaded) {
  const std::vector<Time> w = {3.0, 2.0, 2.0, 1.0};
  const GreedyScheduleResult r = list_schedule(w, 2);
  // 3 -> m0; 2 -> m1; 2 -> m1 (load 2 < 3); 1 -> m0 (load 3 < 4).
  EXPECT_EQ(r.assignment[0], 0u);
  EXPECT_EQ(r.assignment[1], 1u);
  EXPECT_EQ(r.assignment[2], 1u);
  EXPECT_EQ(r.assignment[3], 0u);
  EXPECT_DOUBLE_EQ(r.makespan, 4.0);
}

TEST(ListScheduling, TieBreaksTowardLowestMachineId) {
  const std::vector<Time> w = {1.0, 1.0, 1.0};
  const GreedyScheduleResult r = list_schedule(w, 3);
  EXPECT_EQ(r.assignment[0], 0u);
  EXPECT_EQ(r.assignment[1], 1u);
  EXPECT_EQ(r.assignment[2], 2u);
}

TEST(ListScheduling, SingleMachineSumsEverything) {
  const std::vector<Time> w = {1.0, 2.0, 3.0};
  const GreedyScheduleResult r = list_schedule(w, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(ListScheduling, ExplicitOrderPrefixLeavesRestUnassigned) {
  const std::vector<Time> w = {5.0, 1.0, 2.0};
  const std::vector<TaskId> order = {2, 1};
  const GreedyScheduleResult r = list_schedule(w, 2, order);
  EXPECT_EQ(r.assignment[0], kNoMachine);
  EXPECT_NE(r.assignment[1], kNoMachine);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
}

TEST(ListScheduling, DuplicateInOrderThrows) {
  const std::vector<Time> w = {1.0, 1.0};
  const std::vector<TaskId> order = {0, 0};
  EXPECT_THROW((void)list_schedule(w, 2, order), std::invalid_argument);
}

TEST(ListScheduling, ZeroMachinesThrows) {
  const std::vector<Time> w = {1.0};
  EXPECT_THROW((void)list_schedule(w, 0), std::invalid_argument);
}

TEST(ListScheduling, OntoInitialLoads) {
  const std::vector<Time> w = {2.0, 2.0};
  const std::vector<TaskId> order = {0, 1};
  const GreedyScheduleResult r = list_schedule_onto(w, order, {10.0, 0.0});
  // Both tasks land on machine 1 (loads 0 -> 2 -> 4 < 10).
  EXPECT_EQ(r.assignment[0], 1u);
  EXPECT_EQ(r.assignment[1], 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

// The greedy list_schedule ran before the winner tree, kept as the
// oracle: a (load, id) min-heap, popped, charged and pushed back per task.
struct HeapSlot {
  Time load;
  MachineId id;
  bool operator<(const HeapSlot& other) const noexcept {
    if (load != other.load) return load > other.load;
    return id > other.id;
  }
};

GreedyScheduleResult heap_list_schedule(std::span<const Time> weights,
                                        std::span<const TaskId> order,
                                        std::vector<Time> initial_loads) {
  const auto m = static_cast<MachineId>(initial_loads.size());
  if (m == 0) throw std::invalid_argument("need at least one machine");
  GreedyScheduleResult result;
  result.assignment = Assignment(weights.size());
  result.loads = std::move(initial_loads);
  std::priority_queue<HeapSlot> heap;
  for (MachineId i = 0; i < m; ++i) heap.push({result.loads[i], i});
  for (const TaskId j : order) {
    if (j >= weights.size()) throw std::out_of_range("task id out of range");
    if (result.assignment[j] != kNoMachine) throw std::invalid_argument("duplicate task");
    HeapSlot slot = heap.top();
    heap.pop();
    result.assignment.machine_of[j] = slot.id;
    slot.load += weights[j];
    result.loads[slot.id] = slot.load;
    heap.push(slot);
  }
  result.makespan = *std::max_element(result.loads.begin(), result.loads.end());
  return result;
}

void expect_bitwise_equal(const GreedyScheduleResult& got, const GreedyScheduleResult& want) {
  EXPECT_EQ(got.assignment.machine_of, want.assignment.machine_of);
  ASSERT_EQ(got.loads.size(), want.loads.size());
  for (std::size_t i = 0; i < want.loads.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.loads[i]),
              std::bit_cast<std::uint64_t>(want.loads[i]))
        << "machine " << i;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.makespan),
            std::bit_cast<std::uint64_t>(want.makespan));
}

TEST(ListScheduling, MatchesPriorityQueueReferenceBitwise) {
  Xoshiro256 rng(20261018);
  constexpr std::size_t n = 1000;
  const MachineId machine_counts[] = {1, 2, 3, 7, 8, 63, 64, 65, 130};
  const char* const shapes[] = {"uniform", "integer ties", "signed zeros", "1e300 outlier"};
  for (int shape = 0; shape < 4; ++shape) {
    std::vector<Time> w(n);
    for (Time& t : w) {
      switch (shape) {
        case 0: t = sample_uniform(rng, 1.0, 10.0); break;
        case 1: t = static_cast<double>(1 + rng.next_below(4)); break;
        case 2: t = rng.next_below(8) == 0 ? 1.0 : (rng.next_below(2) == 0 ? -0.0 : 0.0);
          break;
        default: t = rng.next_below(200) == 0 ? 1e300 : sample_uniform(rng, 1.0, 2.0);
      }
    }
    std::vector<TaskId> input(n);
    std::iota(input.begin(), input.end(), TaskId{0});
    std::vector<TaskId> random = input;
    for (std::size_t k = n - 1; k > 0; --k) {
      std::swap(random[k], random[rng.next_below(k + 1)]);
    }
    const std::pair<const char*, std::vector<TaskId>> orders[] = {
        {"input", input}, {"lpt", lpt_order(w)}, {"random", random}};
    for (const MachineId m : machine_counts) {
      SCOPED_TRACE(std::string(shapes[shape]) + " m=" + std::to_string(m));
      expect_bitwise_equal(list_schedule(w, m),
                           heap_list_schedule(w, input, std::vector<Time>(m, 0)));
      for (const auto& [name, order] : orders) {
        for (const std::size_t len : {n, n / 3, std::size_t{0}}) {
          SCOPED_TRACE(std::string(name) + " prefix " + std::to_string(len));
          const std::span<const TaskId> prefix(order.data(), len);
          expect_bitwise_equal(list_schedule(w, m, prefix),
                               heap_list_schedule(w, prefix, std::vector<Time>(m, 0)));
        }
      }
      // Onto unequal initial loads, and onto signed zeros that tie.
      std::vector<Time> unequal(m), zeros(m);
      for (MachineId i = 0; i < m; ++i) {
        unequal[i] = static_cast<double>(rng.next_below(40));
        zeros[i] = rng.next_below(2) == 0 ? -0.0 : 0.0;
      }
      for (const std::vector<Time>& initial : {unequal, zeros}) {
        expect_bitwise_equal(list_schedule_onto(w, orders[1].second, initial),
                             heap_list_schedule(w, orders[1].second, initial));
        expect_bitwise_equal(list_schedule_onto(w, random, initial),
                             heap_list_schedule(w, random, initial));
      }
    }
  }
  // Both reject the same inputs with the same exception types.
  const std::vector<Time> w = {1.0, 2.0, 3.0};
  const std::vector<TaskId> duplicate = {0, 2, 0};
  const std::vector<TaskId> out_of_range = {0, 3};
  EXPECT_THROW((void)list_schedule(w, 2, duplicate), std::invalid_argument);
  EXPECT_THROW((void)heap_list_schedule(w, duplicate, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)list_schedule(w, 2, out_of_range), std::out_of_range);
  EXPECT_THROW((void)heap_list_schedule(w, out_of_range, {0, 0}), std::out_of_range);
  EXPECT_THROW((void)list_schedule_onto(w, out_of_range, {}), std::invalid_argument);
  EXPECT_THROW((void)heap_list_schedule(w, out_of_range, {}), std::invalid_argument);
}

TEST(Lpt, OrderIsNonIncreasingAndStable) {
  const std::vector<Time> w = {1.0, 3.0, 2.0, 3.0};
  const std::vector<TaskId> order = lpt_order(w);
  EXPECT_EQ(order, (std::vector<TaskId>{1, 3, 2, 0}));
}

// The comparator sorts lpt_order and make_priority's SPT rule used to
// run, kept as references: ids stably sorted on their weight, ties by id.
std::vector<TaskId> comparator_order(std::span<const Time> w, bool descending) {
  std::vector<TaskId> ids(w.size());
  std::iota(ids.begin(), ids.end(), TaskId{0});
  std::stable_sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    return descending ? w[a] > w[b] : w[a] < w[b];
  });
  return ids;
}

TEST(Lpt, OrdersAndScheduleMatchComparatorReference) {
  Xoshiro256 rng(2024);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{33},
                              std::size_t{1000}, std::size_t{50000}}) {
    for (int shape = 0; shape < 6; ++shape) {
      std::vector<Time> w(n);
      for (Time& t : w) {
        switch (shape) {
          case 0: t = sample_uniform(rng, 1.0, 10.0); break;
          case 1: t = static_cast<double>(1 + rng.next_below(8)); break;  // ties
          case 2: t = std::min(1e4, sample_pareto(rng, 1.0, 1.1)); break;
          case 3: t = tiny * static_cast<double>(1 + rng.next_below(4)); break;
          case 4: t = rng.next_below(100) == 0 ? 1e300 : sample_uniform(rng, 1.0, 2.0);
            break;
          default:  // signed zeros and negatives: lpt_order only
            t = rng.next_below(3) == 0 ? -0.0 : sample_uniform(rng, -5.0, 5.0);
        }
      }
      SCOPED_TRACE("shape " + std::to_string(shape) + " n=" + std::to_string(n));
      const std::vector<TaskId> lpt = comparator_order(w, true);
      ASSERT_EQ(lpt_order(w), lpt);
      if (shape == 5) continue;
      const GreedyScheduleResult got = lpt_schedule(w, 7);
      const GreedyScheduleResult want = list_schedule(w, 7, lpt);
      EXPECT_EQ(got.assignment.machine_of, want.assignment.machine_of);
      for (MachineId i = 0; i < 7; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.loads[i]),
                  std::bit_cast<std::uint64_t>(want.loads[i]));
      }
      const Instance inst = Instance::from_estimates(w, 7, 1.5);
      EXPECT_EQ(make_priority(inst, PriorityRule::kLongestEstimateFirst), lpt);
      EXPECT_EQ(make_priority(inst, PriorityRule::kShortestEstimateFirst),
                comparator_order(w, false));
    }
  }
}

TEST(Lpt, ClassicExample) {
  // Graham's worst case for LPT with m=2: {3,3,2,2,2} -> LPT gives 7, OPT 6.
  const std::vector<Time> w = {3.0, 3.0, 2.0, 2.0, 2.0};
  const GreedyScheduleResult r = lpt_schedule(w, 2);
  EXPECT_DOUBLE_EQ(r.makespan, 7.0);
  const BnbResult opt = branch_and_bound_cmax(w, 2);
  EXPECT_DOUBLE_EQ(opt.best, 6.0);
}

TEST(Lpt, GuaranteeFormulas) {
  EXPECT_DOUBLE_EQ(lpt_guarantee(1), 1.0);
  EXPECT_NEAR(lpt_guarantee(2), 7.0 / 6.0, 1e-12);
  EXPECT_DOUBLE_EQ(list_scheduling_guarantee(1), 1.0);
  EXPECT_DOUBLE_EQ(list_scheduling_guarantee(4), 1.75);
}

TEST(Lpt, LoadsSumToTotal) {
  const std::vector<Time> w = {4.0, 1.0, 3.0, 2.0, 5.0};
  const GreedyScheduleResult r = lpt_schedule(w, 3);
  Time sum = 0;
  for (Time l : r.loads) sum += l;
  EXPECT_DOUBLE_EQ(sum, 15.0);
}

// Property: LPT respects Graham's 4/3 - 1/(3m) bound against the exact
// optimum, and LS respects 2 - 1/m, over random instances.
struct KernelCase {
  std::size_t n;
  MachineId m;
  std::uint64_t seed;
};

class KernelGuaranteeProperty : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelGuaranteeProperty, GrahamBoundsHold) {
  const auto [n, m, seed] = GetParam();
  Xoshiro256 rng(seed);
  std::vector<Time> w;
  w.reserve(n);
  for (std::size_t j = 0; j < n; ++j) w.push_back(sample_uniform(rng, 1.0, 20.0));

  const BnbResult opt = branch_and_bound_cmax(w, m);
  ASSERT_TRUE(opt.proven);
  ASSERT_GT(opt.best, 0.0);

  const GreedyScheduleResult lpt = lpt_schedule(w, m);
  EXPECT_LE(lpt.makespan / opt.best, lpt_guarantee(m) + 1e-9);

  const GreedyScheduleResult ls = list_schedule(w, m);
  EXPECT_LE(ls.makespan / opt.best, list_scheduling_guarantee(m) + 1e-9);
}

// The classic tight family for LPT: two jobs of each size 2m-1 ... m+1
// plus three jobs of size m. OPT = 3m (perfectly packed), LPT = 4m-1,
// so the ratio meets Graham's 4/3 - 1/(3m) bound *exactly*.
class LptTightFamily : public ::testing::TestWithParam<MachineId> {};

TEST_P(LptTightFamily, AchievesTheBoundExactly) {
  const MachineId m = GetParam();
  std::vector<Time> w;
  for (MachineId s = 2 * m - 1; s >= m + 1; --s) {
    w.push_back(static_cast<Time>(s));
    w.push_back(static_cast<Time>(s));
  }
  w.push_back(static_cast<Time>(m));
  w.push_back(static_cast<Time>(m));
  w.push_back(static_cast<Time>(m));
  ASSERT_EQ(w.size(), 2 * static_cast<std::size_t>(m) + 1);

  const GreedyScheduleResult lpt = lpt_schedule(w, m);
  EXPECT_DOUBLE_EQ(lpt.makespan, static_cast<Time>(4 * m - 1));
  const BnbResult opt = branch_and_bound_cmax(w, m);
  ASSERT_TRUE(opt.proven);
  EXPECT_DOUBLE_EQ(opt.best, static_cast<Time>(3 * m));
  EXPECT_NEAR(lpt.makespan / opt.best, lpt_guarantee(m), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Machines, LptTightFamily, ::testing::Values(2, 3, 4, 5));

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, KernelGuaranteeProperty,
    ::testing::Values(KernelCase{6, 2, 1}, KernelCase{8, 2, 2}, KernelCase{10, 2, 3},
                      KernelCase{9, 3, 4}, KernelCase{12, 3, 5}, KernelCase{12, 4, 6},
                      KernelCase{14, 4, 7}, KernelCase{15, 5, 8}, KernelCase{16, 4, 9},
                      KernelCase{18, 3, 10}, KernelCase{20, 5, 11},
                      KernelCase{13, 6, 12}));

}  // namespace
}  // namespace rdp
