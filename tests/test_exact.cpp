// Tests for the exact substrate: lower bounds, brute force, B&B, MULTIFIT,
// and the certified-optimum wrapper.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/list_scheduling.hpp"
#include "algo/lpt.hpp"
#include "exact/branch_and_bound.hpp"
#include "brute_force.hpp"
#include "exact/dual_approx.hpp"
#include "exact/lower_bounds.hpp"
#include "exact/optimal.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace rdp {
namespace {

TEST(LowerBounds, AvgLoad) {
  const std::vector<Time> p = {4.0, 4.0, 4.0};
  EXPECT_DOUBLE_EQ(avg_load_bound(p, 3), 4.0);
  EXPECT_DOUBLE_EQ(avg_load_bound(p, 2), 6.0);
}

TEST(LowerBounds, LongestTask) {
  const std::vector<Time> p = {1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(longest_task_bound(p), 9.0);
}

TEST(LowerBounds, PairingNeedsMoreTasksThanMachines) {
  const std::vector<Time> p = {5.0, 4.0};
  EXPECT_DOUBLE_EQ(pairing_bound(p, 2), 0.0);
  const std::vector<Time> q = {5.0, 4.0, 3.0};
  // Top 3 tasks: {5,4,3}; cheapest pair = 3+4.
  EXPECT_DOUBLE_EQ(pairing_bound(q, 2), 7.0);
}

TEST(LowerBounds, CombinedTakesMax) {
  const std::vector<Time> p = {5.0, 4.0, 3.0};
  EXPECT_DOUBLE_EQ(makespan_lower_bound(p, 2), 7.0);  // pairing dominates
  const std::vector<Time> q = {100.0, 1.0};
  EXPECT_DOUBLE_EQ(makespan_lower_bound(q, 2), 100.0);  // longest dominates
}

TEST(BruteForce, KnownOptimum) {
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(brute_force_cmax(p, 2).optimal, 6.0);
}

TEST(BruteForce, SingleMachine) {
  const std::vector<Time> p = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(brute_force_cmax(p, 1).optimal, 6.0);
}

TEST(BruteForce, MoreMachinesThanTasks) {
  const std::vector<Time> p = {4.0, 2.0};
  EXPECT_DOUBLE_EQ(brute_force_cmax(p, 5).optimal, 4.0);
}

TEST(BruteForce, GuardsAgainstLargeInstances) {
  const std::vector<Time> p(20, 1.0);
  EXPECT_THROW((void)brute_force_cmax(p, 2), std::invalid_argument);
}

TEST(BruteForce, EmptyInstance) {
  const std::vector<Time> p;
  EXPECT_DOUBLE_EQ(brute_force_cmax(p, 3).optimal, 0.0);
}

TEST(BranchAndBound, MatchesKnownOptimum) {
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  const BnbResult r = branch_and_bound_cmax(p, 2);
  EXPECT_TRUE(r.proven);
  EXPECT_DOUBLE_EQ(r.best, 6.0);
  EXPECT_DOUBLE_EQ(r.lower_bound, 6.0);
}

TEST(BranchAndBound, AssignmentAchievesReportedMakespan) {
  const std::vector<Time> p = {7.0, 5.0, 4.0, 4.0, 3.0, 2.0, 2.0};
  const BnbResult r = branch_and_bound_cmax(p, 3);
  ASSERT_TRUE(r.proven);
  std::vector<Time> loads(3, 0);
  for (TaskId j = 0; j < p.size(); ++j) loads[r.assignment[j]] += p[j];
  EXPECT_DOUBLE_EQ(*std::max_element(loads.begin(), loads.end()), r.best);
}

TEST(BranchAndBound, BudgetExhaustionGivesBracket) {
  // A hard-ish instance with a 2-node budget: must fall back to bounds.
  std::vector<Time> p;
  Xoshiro256 rng(99);
  for (int i = 0; i < 30; ++i) p.push_back(sample_uniform(rng, 1.0, 2.0));
  const BnbResult r = branch_and_bound_cmax(p, 4, /*node_budget=*/2);
  EXPECT_FALSE(r.proven);
  EXPECT_LE(r.lower_bound, r.best);
  EXPECT_GE(r.lower_bound, makespan_lower_bound(p, 4) - 1e-12);
}

TEST(BranchAndBound, EmptyIsProvenZero) {
  const std::vector<Time> p;
  const BnbResult r = branch_and_bound_cmax(p, 2);
  EXPECT_TRUE(r.proven);
  EXPECT_DOUBLE_EQ(r.best, 0.0);
}

// Property: B&B equals brute force on random tiny instances.
class BnbVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BnbVsBruteForce, Agree) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 5 + static_cast<std::size_t>(rng.next_below(6));  // 5..10
  const MachineId m = 2 + static_cast<MachineId>(rng.next_below(3));      // 2..4
  std::vector<Time> p;
  for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, 0.5, 10.0));
  const BruteForceResult bf = brute_force_cmax(p, m);
  const BnbResult bnb = branch_and_bound_cmax(p, m);
  ASSERT_TRUE(bnb.proven);
  EXPECT_NEAR(bnb.best, bf.optimal, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomTiny, BnbVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(BranchAndBound, WarmStartNeverExpandsMoreNodes) {
  Xoshiro256 rng(51);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 10 + static_cast<std::size_t>(rng.next_below(5));
    const MachineId m = 3 + static_cast<MachineId>(rng.next_below(2));
    std::vector<Time> p;
    for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, 0.5, 10.0));

    const BnbResult cold = branch_and_bound_cmax(p, m);
    ASSERT_TRUE(cold.proven);

    BnbWarmStart warm;
    warm.assignment = &cold.assignment;
    const BnbResult seeded = branch_and_bound_cmax(p, m, 20'000'000, warm);
    ASSERT_TRUE(seeded.proven);
    // Seeding with an optimal incumbent can only prune earlier; the value
    // it certifies is the same optimum (up to the incumbent tolerance).
    EXPECT_NEAR(seeded.best, cold.best, 1e-9);
    EXPECT_LE(seeded.nodes, cold.nodes);
  }
}

TEST(BranchAndBound, WarmStartFromInvalidAssignmentIsIgnored) {
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  Assignment bogus(p.size());
  bogus.machine_of = {0, 7, 0, 0, 0};  // machine 7 does not exist for m=2
  BnbWarmStart warm;
  warm.assignment = &bogus;
  const BnbResult r = branch_and_bound_cmax(p, 2, 20'000'000, warm);
  EXPECT_TRUE(r.proven);
  EXPECT_DOUBLE_EQ(r.best, 6.0);

  Assignment wrong_size(p.size() - 1);
  warm.assignment = &wrong_size;
  const BnbResult s = branch_and_bound_cmax(p, 2, 20'000'000, warm);
  EXPECT_TRUE(s.proven);
  EXPECT_DOUBLE_EQ(s.best, 6.0);
}

TEST(BranchAndBound, WarmStartFromPoorAssignmentStillOptimal) {
  const std::vector<Time> p = {7.0, 5.0, 4.0, 4.0, 3.0, 2.0, 2.0};
  Assignment everything_on_one(p.size());  // terrible but complete
  BnbWarmStart warm;
  warm.assignment = &everything_on_one;
  const BnbResult r = branch_and_bound_cmax(p, 3, 20'000'000, warm);
  const BnbResult cold = branch_and_bound_cmax(p, 3);
  ASSERT_TRUE(r.proven);
  EXPECT_NEAR(r.best, cold.best, 1e-9);
}

TEST(BranchAndBound, ManyMachinesBeyondSixtyFour) {
  // The pre-rewrite symmetry dedup used a fixed 64-slot seen-loads array,
  // silently degrading for m > 64. With 10 tasks on 70 machines the
  // optimum is the longest task, and the sorted-order dedup must prove it
  // in a handful of nodes (one non-symmetric machine choice per depth).
  Xoshiro256 rng(52);
  std::vector<Time> p;
  for (int j = 0; j < 10; ++j) p.push_back(sample_uniform(rng, 1.0, 5.0));
  const Time longest = *std::max_element(p.begin(), p.end());
  const BnbResult r = branch_and_bound_cmax(p, 70);
  ASSERT_TRUE(r.proven);
  EXPECT_DOUBLE_EQ(r.best, longest);
  EXPECT_LE(r.nodes, 1000u);
}

TEST(BranchAndBound, DuplicateHeavyInstancesPruneSymmetry) {
  // 12 tasks drawn from only two distinct values create massive machine
  // symmetry; adjacent-equal-load skipping must keep the tree tiny while
  // still matching brute force.
  const std::vector<Time> p = {5.0, 5.0, 5.0, 5.0, 5.0, 5.0,
                               3.0, 3.0, 3.0, 3.0, 3.0, 3.0};
  const BruteForceResult bf = brute_force_cmax(p, 4);
  const BnbResult r = branch_and_bound_cmax(p, 4);
  ASSERT_TRUE(r.proven);
  EXPECT_NEAR(r.best, bf.optimal, 1e-9);
  EXPECT_LE(r.nodes, 20'000u);
}

// ---------------------------------------------------- tree-parity oracle --
//
// The sort-per-node search that branch_and_bound_cmax replaced: at every
// node it sorts all m machines by (load, index) and scans for the two
// smallest loads. The production kernel keeps each depth's order
// incrementally instead; the contract is that it visits the same tree, so
// every BnbResult field matches this oracle bit for bit -- including on
// budget exhaustion, negative or signed-zero times and any warm start.

namespace oracle {

constexpr double kEps = 1e-12;

struct SearchState {
  std::span<const Time> p;
  MachineId m;
  std::uint64_t node_budget;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  Time incumbent = std::numeric_limits<Time>::infinity();
  Time root_lb = 0;
  Time avg_bound = 0;
  std::vector<Time> loads;
  std::vector<MachineId> current;
  std::vector<MachineId> best;
  std::vector<std::vector<MachineId>> machine_order;
};

void dfs(SearchState& st, TaskId j, Time max_load) {
  if (st.budget_exhausted) return;
  if (++st.nodes > st.node_budget) {
    st.budget_exhausted = true;
    return;
  }
  if (j == st.p.size()) {
    if (max_load < st.incumbent - kEps) {
      st.incumbent = max_load;
      st.best = st.current;
    }
    return;
  }
  Time min1 = std::numeric_limits<Time>::infinity();
  Time min2 = std::numeric_limits<Time>::infinity();
  for (const Time l : st.loads) {
    if (l < min1) {
      min2 = min1;
      min1 = l;
    } else if (l < min2) {
      min2 = l;
    }
  }
  const Time pj = st.p[j];
  Time lb = std::max(max_load, st.avg_bound);
  if (j + 1 < st.p.size() && st.m >= 2) {
    const Time same_bin = min1 + pj + st.p[j + 1];
    const Time diff_bins = std::max(min1 + pj, min2 + st.p[j + 1]);
    lb = std::max(lb, std::min(same_bin, diff_bins));
  } else {
    lb = std::max(lb, min1 + pj);
  }
  if (lb >= st.incumbent - kEps) return;

  std::vector<MachineId>& order = st.machine_order[j];
  order.resize(st.m);
  std::iota(order.begin(), order.end(), MachineId{0});
  std::sort(order.begin(), order.end(), [&](MachineId a, MachineId b) {
    return st.loads[a] != st.loads[b] ? st.loads[a] < st.loads[b] : a < b;
  });
  bool have_prev = false;
  Time prev_load = 0;
  for (const MachineId i : order) {
    const Time load = st.loads[i];
    if (have_prev && load == prev_load) continue;
    have_prev = true;
    prev_load = load;
    if (load + pj >= st.incumbent - kEps) break;
    st.loads[i] = load + pj;
    st.current[j] = i;
    dfs(st, j + 1, std::max(max_load, load + pj));
    st.loads[i] = load;
    if (st.budget_exhausted) return;
    if (st.incumbent <= st.root_lb + kEps) return;
  }
}

BnbResult branch_and_bound_cmax(std::span<const Time> p, MachineId m,
                                std::uint64_t node_budget, const BnbWarmStart& warm) {
  BnbResult result;
  result.assignment = Assignment(p.size());
  if (p.empty()) {
    result.proven = true;
    return result;
  }
  const std::vector<TaskId> order = lpt_order(p);
  std::vector<Time> sorted(p.size());
  for (std::size_t r = 0; r < order.size(); ++r) sorted[r] = p[order[r]];

  SearchState st;
  st.p = sorted;
  st.m = m;
  st.node_budget = node_budget;
  st.loads.assign(m, 0);
  st.current.assign(p.size(), 0);
  st.best.assign(p.size(), 0);
  st.machine_order.resize(p.size());
  std::vector<Time> suffix_sum(p.size() + 1, 0);
  for (std::size_t j = p.size(); j-- > 0;) suffix_sum[j] = suffix_sum[j + 1] + sorted[j];
  st.avg_bound = suffix_sum[0] / static_cast<double>(m);
  st.root_lb = makespan_lower_bound(sorted, m);

  const GreedyScheduleResult lpt = list_schedule(sorted, m);
  st.incumbent = lpt.makespan;
  for (std::size_t r = 0; r < sorted.size(); ++r) st.best[r] = lpt.assignment.machine_of[r];

  if (warm.assignment != nullptr && warm.assignment->machine_of.size() == p.size()) {
    std::vector<Time> warm_loads(m, 0);
    bool valid = true;
    for (std::size_t j = 0; j < p.size(); ++j) {
      const MachineId i = warm.assignment->machine_of[j];
      if (i >= m) {
        valid = false;
        break;
      }
      warm_loads[i] += p[j];
    }
    if (valid) {
      const Time warm_cmax = *std::max_element(warm_loads.begin(), warm_loads.end());
      if (warm_cmax < st.incumbent - kEps) {
        st.incumbent = warm_cmax;
        for (std::size_t r = 0; r < order.size(); ++r) {
          st.best[r] = warm.assignment->machine_of[order[r]];
        }
      }
    }
  }

  if (st.incumbent > st.root_lb + kEps) dfs(st, 0, 0);

  result.best = st.incumbent;
  result.nodes = st.nodes;
  result.proven = !st.budget_exhausted;
  result.lower_bound = result.proven ? st.incumbent : st.root_lb;
  for (std::size_t r = 0; r < order.size(); ++r) {
    result.assignment.machine_of[order[r]] = st.best[r];
  }
  return result;
}

}  // namespace oracle

// Processing-time families for the parity sweep.
enum class Family { kUniform, kDuplicateHeavy, kInteger, kSignedZeros, kNegative };

std::vector<Time> parity_instance(Family family, std::size_t n, Xoshiro256& rng) {
  std::vector<Time> p(n);
  for (Time& v : p) {
    switch (family) {
      case Family::kUniform:
        v = sample_uniform(rng, 0.5, 10.0);
        break;
      case Family::kDuplicateHeavy:
        v = std::array<Time, 3>{2.5, 3.0, 7.25}[rng.next_below(3)];
        break;
      case Family::kInteger:
        v = static_cast<Time>(1 + rng.next_below(40));
        break;
      case Family::kSignedZeros: {
        const std::uint64_t pick = rng.next_below(4);
        v = pick == 0 ? 0.0 : pick == 1 ? -0.0 : static_cast<Time>(rng.next_below(9));
        break;
      }
      case Family::kNegative:
        v = sample_uniform(rng, -4.0, 10.0);
        break;
    }
  }
  return p;
}

void expect_bitwise_equal(const BnbResult& got, const BnbResult& want,
                          const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best), std::bit_cast<std::uint64_t>(want.best))
      << where << " best " << got.best << " vs " << want.best;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lower_bound),
            std::bit_cast<std::uint64_t>(want.lower_bound))
      << where << " lower_bound " << got.lower_bound << " vs " << want.lower_bound;
  EXPECT_EQ(got.proven, want.proven) << where;
  EXPECT_EQ(got.nodes, want.nodes) << where;
  EXPECT_EQ(got.assignment.machine_of, want.assignment.machine_of) << where;
}

TEST(BranchAndBound, MatchesSortPerNodeReferenceBitwise) {
  constexpr std::array<MachineId, 6> kMachines = {1, 2, 3, 8, 13, 70};
  constexpr std::array<std::uint64_t, 5> kBudgets = {1, 2, 100, 10'000, 400'000};
  constexpr std::array<Family, 5> kFamilies = {Family::kUniform, Family::kDuplicateHeavy,
                                               Family::kInteger, Family::kSignedZeros,
                                               Family::kNegative};
  Xoshiro256 rng(2024);
  std::uint64_t cases = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t k = 0;
  // Budget edges: a search that proves in N nodes also runs at budgets
  // N - 1 and N, so the budget runs out on its last node or just covers
  // it. The kernel counts a child whose bound fails at its parent, with no
  // call, unless that child would exhaust the budget; budget N records one
  // more such child than budget N - 1 exactly when the last node is one.
  std::map<MachineId, std::uint64_t> edges_on_counted_child;
  const auto check_budget_edges = [&](std::span<const Time> p, MachineId m,
                                      const BnbWarmStart& warm, std::uint64_t nodes,
                                      const std::string& where) {
    if (nodes == 0) return;  // closed before the root: nothing to stop
    std::array<std::uint64_t, 2> pruned{};
    for (const std::uint64_t budget : {nodes - 1, nodes}) {
      const BnbResult want = oracle::branch_and_bound_cmax(p, m, budget, warm);
      obs::MetricsRegistry registry;
      BnbResult got;
      {
        const obs::ObservabilityScope scope(&registry, nullptr);
        got = branch_and_bound_cmax(p, m, budget, warm);
      }
      expect_bitwise_equal(got, want, where + " edge budget=" + std::to_string(budget));
      EXPECT_EQ(want.proven, budget == nodes) << where << " edge budget=" << budget;
      pruned[budget - (nodes - 1)] =
          registry.snapshot().counter_or("exp.certify.bnb_bound_pruned");
    }
    edges_on_counted_child[m] += pruned[1] - pruned[0];
  };
  for (std::size_t n = 0; n <= 26; ++n) {
    for (const MachineId m : kMachines) {
      for (const Family family : kFamilies) {
        const std::vector<Time> p = parity_instance(family, n, rng);
        const std::string where = "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                                  " family=" + std::to_string(static_cast<int>(family));
        for (const std::uint64_t budget : kBudgets) {
          const BnbResult want = oracle::branch_and_bound_cmax(p, m, budget, {});
          const BnbResult got = branch_and_bound_cmax(p, m, budget);
          expect_bitwise_equal(got, want, where + " budget=" + std::to_string(budget));
          ++cases;
          exhausted += want.proven ? 0 : 1;
          if (budget == kBudgets.back() && want.proven) {
            check_budget_edges(p, m, {}, want.nodes, where);
          }
        }
        // Warm starts: valid (random), invalid machine, wrong size, poor
        // (everything on machine 0) and optimal (the cold search's best,
        // proven wherever 10^4 nodes suffice).
        Assignment random_valid(n);
        for (MachineId& i : random_valid.machine_of) {
          i = static_cast<MachineId>(rng.next_below(m));
        }
        Assignment invalid = random_valid;
        if (n > 0) invalid.machine_of[n / 2] = m;
        Assignment wrong_size(n + 1);
        std::fill(wrong_size.machine_of.begin(), wrong_size.machine_of.end(), 0);
        Assignment poor(n);
        std::fill(poor.machine_of.begin(), poor.machine_of.end(), 0);
        const BnbResult optimal = oracle::branch_and_bound_cmax(p, m, 10'000, {});
        const std::array<const Assignment*, 5> seeds = {
            &random_valid, &invalid, &wrong_size, &poor, &optimal.assignment};
        for (const Assignment* seed : seeds) {
          const std::uint64_t budget = kBudgets[k++ % 4];
          BnbWarmStart warm;
          warm.assignment = seed;
          const BnbResult want = oracle::branch_and_bound_cmax(p, m, budget, warm);
          const BnbResult got = branch_and_bound_cmax(p, m, budget, warm);
          expect_bitwise_equal(got, want, where + " warm budget=" + std::to_string(budget));
          ++cases;
          exhausted += want.proven ? 0 : 1;
          if (want.proven) check_budget_edges(p, m, warm, want.nodes, where + " warm");
        }
      }
    }
  }
  // The sweep must exercise both outcomes, not just trivially proven roots.
  EXPECT_GT(exhausted, cases / 10) << cases << " cases";
  EXPECT_LT(exhausted, cases) << cases << " cases";

  // The child bound's fallbacks. With m = 1 the LPT incumbent is the sum
  // of the times, so a search starts only when rounding leaves it above
  // the root bound: times near 2^52 make the two summation orders differ
  // by whole units. Each child's bound then takes the one-machine branch,
  // as every node holding only the last task (j + 1 == n) does. m = 2 has
  // no third slot to read the child's second-smallest load from.
  Xoshiro256 wide(7);
  std::uint64_t one_machine_searches = 0;
  for (int t = 0; t < 60; ++t) {
    const std::size_t n = 2 + static_cast<std::size_t>(wide.next_below(13));
    std::vector<Time> p(n);
    for (Time& v : p) v = std::ldexp(sample_uniform(wide, 1.0, 2.0), 52);
    for (const MachineId m : {MachineId{1}, MachineId{2}, MachineId{3}}) {
      const std::string where =
          "wide t=" + std::to_string(t) + " n=" + std::to_string(n) + " m=" + std::to_string(m);
      for (const std::uint64_t budget : kBudgets) {
        const BnbResult want = oracle::branch_and_bound_cmax(p, m, budget, {});
        expect_bitwise_equal(branch_and_bound_cmax(p, m, budget), want,
                             where + " budget=" + std::to_string(budget));
        if (budget == kBudgets.back() && want.proven) {
          check_budget_edges(p, m, {}, want.nodes, where);
          one_machine_searches += m == 1 && want.nodes > 1 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(one_machine_searches, 0u);
  for (const MachineId m : {MachineId{1}, MachineId{2}, MachineId{3}, MachineId{8}}) {
    EXPECT_GT(edges_on_counted_child[m], 0u) << "m=" << m;
  }
}

TEST(CertifiedCmax, RejectsNonFiniteTimesOnEveryRoute) {
  const auto expect_index_error = [](const std::function<void()>& call,
                                     const std::string& what) {
    try {
      call();
      ADD_FAILURE() << "expected std::invalid_argument mentioning '" << what << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
  };
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  const Time inf = std::numeric_limits<Time>::infinity();
  for (const Time bad : {nan, inf, -inf}) {
    const std::vector<Time> p = {3.0, bad, 2.0, 1.0};
    // B&B route (m = 3), the m = 2 partition route, and an instance
    // MULTIFIT closes by itself (five unit tasks on five machines).
    expect_index_error([&] { (void)branch_and_bound_cmax(p, 3); },
                       "branch_and_bound_cmax: non-finite time at index 1");
    expect_index_error([&] { (void)certified_cmax(p, 3); },
                       "certified_cmax: non-finite time at index 1");
    expect_index_error([&] { (void)certified_cmax(p, 2); },
                       "certified_cmax: non-finite time at index 1");
    const std::vector<Time> units = {1.0, 1.0, 1.0, 1.0, bad};
    expect_index_error([&] { (void)certified_cmax(units, 5); },
                       "certified_cmax: non-finite time at index 4");
  }
}

TEST(Multifit, FfdFeasibilityBasics) {
  const std::vector<Time> p = {4.0, 3.0, 3.0, 2.0};
  EXPECT_TRUE(ffd_fits(p, 2, 6.0));
  EXPECT_FALSE(ffd_fits(p, 2, 5.0));
}

TEST(Multifit, FfdReturnsPacking) {
  const std::vector<Time> p = {4.0, 3.0, 3.0, 2.0};
  Assignment a;
  ASSERT_TRUE(ffd_fits(p, 2, 6.0, &a));
  std::vector<Time> loads(2, 0);
  for (TaskId j = 0; j < p.size(); ++j) loads[a[j]] += p[j];
  EXPECT_LE(loads[0], 6.0 + 1e-9);
  EXPECT_LE(loads[1], 6.0 + 1e-9);
}

TEST(Multifit, NeverWorseThanLpt) {
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  const MultifitResult mf = multifit_cmax(p, 2);
  EXPECT_LE(mf.makespan, lpt_schedule(p, 2).makespan + 1e-9);
  EXPECT_DOUBLE_EQ(mf.makespan, 6.0);  // finds the optimum here
}

// Property: MULTIFIT is within 13/11 of the exact optimum.
class MultifitGuarantee : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultifitGuarantee, WithinThirteenElevenths) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 8 + static_cast<std::size_t>(rng.next_below(8));
  const MachineId m = 2 + static_cast<MachineId>(rng.next_below(4));
  std::vector<Time> p;
  for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, 0.5, 10.0));
  const BnbResult opt = branch_and_bound_cmax(p, m);
  ASSERT_TRUE(opt.proven);
  const MultifitResult mf = multifit_cmax(p, m);
  EXPECT_LE(mf.makespan, multifit_guarantee() * opt.best + 1e-9);
  EXPECT_GE(mf.makespan, opt.best - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomSmall, MultifitGuarantee,
                         ::testing::Range<std::uint64_t>(20, 36));

TEST(CertifiedCmax, ExactOnSmall) {
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  const CertifiedCmax c = certified_cmax(p, 2);
  EXPECT_TRUE(c.exact);
  EXPECT_DOUBLE_EQ(c.lower, 6.0);
  EXPECT_DOUBLE_EQ(c.upper, 6.0);
}

TEST(CertifiedCmax, BracketWithoutBudget) {
  std::vector<Time> p;
  Xoshiro256 rng(7);
  for (int i = 0; i < 40; ++i) p.push_back(sample_uniform(rng, 1.0, 2.0));
  const CertifiedCmax c = certified_cmax(p, 5, /*node_budget=*/0);
  EXPECT_LE(c.lower, c.upper + 1e-12);
  EXPECT_GT(c.lower, 0.0);
}

TEST(CertifiedCmax, UnitTasksAreTriviallyExact) {
  const std::vector<Time> p(12, 1.0);
  const CertifiedCmax c = certified_cmax(p, 4);
  EXPECT_TRUE(c.exact);
  EXPECT_DOUBLE_EQ(c.upper, 3.0);
}

TEST(CertifiedCmax, LowerNeverExceedsKnownOptimum) {
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Time> p;
    const std::size_t n = 6 + static_cast<std::size_t>(rng.next_below(5));
    for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, 0.5, 6.0));
    const BruteForceResult bf = brute_force_cmax(p, 3);
    const CertifiedCmax c = certified_cmax(p, 3);
    EXPECT_LE(c.lower, bf.optimal + 1e-9);
    EXPECT_GE(c.upper, bf.optimal - 1e-9);
  }
}

}  // namespace
}  // namespace rdp
