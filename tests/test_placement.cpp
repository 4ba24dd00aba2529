// Unit tests for core/placement.hpp and core/validate.hpp placement checks.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/placement.hpp"
#include "core/validate.hpp"

namespace rdp {
namespace {

TEST(Placement, SingletonBasics) {
  const Placement p = Placement::singleton({0, 2, 1}, 3);
  EXPECT_EQ(p.num_tasks(), 3u);
  EXPECT_EQ(p.num_machines(), 3u);
  EXPECT_EQ(p.replication_degree(0), 1u);
  EXPECT_EQ(p.max_replication_degree(), 1u);
  EXPECT_TRUE(p.allows(1, 2));
  EXPECT_FALSE(p.allows(1, 0));
  EXPECT_EQ(p.total_replicas(), 3u);
}

TEST(Placement, EverywhereBasics) {
  const Placement p = Placement::everywhere(4, 3);
  EXPECT_EQ(p.num_tasks(), 4u);
  EXPECT_EQ(p.max_replication_degree(), 3u);
  for (TaskId j = 0; j < 4; ++j) {
    for (MachineId i = 0; i < 3; ++i) EXPECT_TRUE(p.allows(j, i));
  }
  EXPECT_EQ(p.total_replicas(), 12u);
}

TEST(Placement, GroupsPartitionMachines) {
  // m=6, k=2 (the paper's Figure 2 configuration): group 0 = {0,1,2},
  // group 1 = {3,4,5}.
  const Placement p = Placement::in_groups({0, 1, 0}, 2, 6);
  EXPECT_EQ(p.machines_for(0), (std::vector<MachineId>{0, 1, 2}));
  EXPECT_EQ(p.machines_for(1), (std::vector<MachineId>{3, 4, 5}));
  EXPECT_EQ(p.machines_for(2), (std::vector<MachineId>{0, 1, 2}));
  EXPECT_EQ(p.max_replication_degree(), 3u);
}

TEST(Placement, GroupsRequireKDividesM) {
  EXPECT_THROW(Placement::in_groups({0}, 4, 6), std::invalid_argument);
  EXPECT_THROW(Placement::in_groups({0}, 0, 6), std::invalid_argument);
}

TEST(Placement, GroupIdOutOfRangeRejected) {
  EXPECT_THROW(Placement::in_groups({2}, 2, 6), std::invalid_argument);
}

TEST(Placement, EmptySetRejected) {
  std::vector<std::vector<MachineId>> sets = {{}};
  EXPECT_THROW(Placement(std::move(sets), 2), std::invalid_argument);
}

TEST(Placement, MachineOutOfRangeRejected) {
  std::vector<std::vector<MachineId>> sets = {{5}};
  EXPECT_THROW(Placement(std::move(sets), 2), std::invalid_argument);
}

TEST(Placement, SetsAreSortedAndDeduplicated) {
  std::vector<std::vector<MachineId>> sets = {{2, 0, 2, 1, 0}};
  const Placement p(std::move(sets), 3);
  EXPECT_EQ(p.machines_for(0), (std::vector<MachineId>{0, 1, 2}));
  EXPECT_EQ(p.replication_degree(0), 3u);
}

TEST(Placement, TasksPerMachineInverts) {
  const Placement p = Placement::in_groups({0, 1}, 2, 4);
  const auto per_machine = p.tasks_per_machine();
  ASSERT_EQ(per_machine.size(), 4u);
  EXPECT_EQ(per_machine[0], (std::vector<TaskId>{0}));
  EXPECT_EQ(per_machine[1], (std::vector<TaskId>{0}));
  EXPECT_EQ(per_machine[2], (std::vector<TaskId>{1}));
  EXPECT_EQ(per_machine[3], (std::vector<TaskId>{1}));
}

TEST(PlacementInterning, GroupsShareOneIdPerDistinctSet) {
  const Placement p = Placement::in_groups({0, 1, 0, 1, 0}, 2, 4);
  EXPECT_EQ(p.num_distinct_sets(), 2u);
  EXPECT_EQ(p.set_id(0), p.set_id(2));
  EXPECT_EQ(p.set_id(0), p.set_id(4));
  EXPECT_EQ(p.set_id(1), p.set_id(3));
  EXPECT_NE(p.set_id(0), p.set_id(1));
  EXPECT_EQ(p.set_population(p.set_id(0)), 3u);
  EXPECT_EQ(p.set_population(p.set_id(1)), 2u);
  EXPECT_EQ(p.distinct_set(p.set_id(0)), p.machines_for(0));
  EXPECT_EQ(p.distinct_set(p.set_id(1)), p.machines_for(1));
}

TEST(PlacementInterning, EverywhereCollapsesToOneSet) {
  const Placement p = Placement::everywhere(100, 8);
  EXPECT_EQ(p.num_distinct_sets(), 1u);
  EXPECT_EQ(p.set_population(0), 100u);
}

TEST(PlacementInterning, OrderAndDuplicatesNormalizedBeforeInterning) {
  // {2,1} and {1,2,2} are the same set after sort+dedup; {1,2,3} is not.
  const Placement p({{2, 1}, {1, 2, 2}, {1, 2, 3}}, 4);
  EXPECT_EQ(p.num_distinct_sets(), 2u);
  EXPECT_EQ(p.set_id(0), p.set_id(1));
  EXPECT_NE(p.set_id(0), p.set_id(2));
}

TEST(PlacementInterning, AllDistinctSetsGetDistinctIds) {
  // Stresses the open-addressed table past its collision handling: 600
  // singleton sets over 600 machines, all distinct.
  std::vector<std::vector<MachineId>> sets;
  for (MachineId i = 0; i < 600; ++i) sets.push_back({i});
  const Placement p(std::move(sets), 600);
  EXPECT_EQ(p.num_distinct_sets(), 600u);
  for (TaskId j = 0; j < 600; ++j) {
    EXPECT_EQ(p.set_population(p.set_id(j)), 1u);
    EXPECT_EQ(p.distinct_set(p.set_id(j)), p.machines_for(j));
  }
}

TEST(Placement, SingletonMachineOutOfRangeRejected) {
  EXPECT_THROW(Placement::singleton({0, 3}, 3), std::invalid_argument);
}

TEST(Placement, ZeroMachinesRejectedByFactories) {
  EXPECT_THROW(Placement::singleton({0}, 0), std::invalid_argument);
  EXPECT_THROW(Placement::singleton({}, 0), std::invalid_argument);
  EXPECT_THROW(Placement::everywhere(3, 0), std::invalid_argument);
  EXPECT_THROW(Placement::everywhere(0, 0), std::invalid_argument);
}

TEST(PlacementStorage, TasksWithTheSameSetShareOneVector) {
  const Placement generic({{1, 0}, {2}, {0, 1}}, 3);
  EXPECT_EQ(&generic.machines_for(0), &generic.machines_for(2));
  EXPECT_NE(&generic.machines_for(0), &generic.machines_for(1));
  const Placement groups = Placement::in_groups({1, 0, 1}, 2, 4);
  EXPECT_EQ(&groups.machines_for(0), &groups.machines_for(2));
  const Placement single = Placement::singleton({2, 2}, 3);
  EXPECT_EQ(&single.machines_for(0), &single.machines_for(1));
  const Placement all = Placement::everywhere(2, 3);
  EXPECT_EQ(&all.machines_for(0), &all.machines_for(1));
}

// Every observable of `actual` equals that of `expected`, including the
// canonical ids, which SetQueues uses to lay out its queues.
void expect_same_placement(const Placement& actual, const Placement& expected) {
  ASSERT_EQ(actual.num_tasks(), expected.num_tasks());
  ASSERT_EQ(actual.num_machines(), expected.num_machines());
  ASSERT_EQ(actual.num_distinct_sets(), expected.num_distinct_sets());
  for (std::uint32_t s = 0; s < expected.num_distinct_sets(); ++s) {
    EXPECT_EQ(actual.distinct_set(s), expected.distinct_set(s));
    EXPECT_EQ(actual.set_population(s), expected.set_population(s));
  }
  for (TaskId j = 0; j < expected.num_tasks(); ++j) {
    EXPECT_EQ(actual.set_id(j), expected.set_id(j));
    EXPECT_EQ(actual.machines_for(j), expected.machines_for(j));
  }
  EXPECT_EQ(actual.total_replicas(), expected.total_replicas());
  EXPECT_EQ(actual.max_replication_degree(), expected.max_replication_degree());
  EXPECT_EQ(actual.tasks_per_machine(), expected.tasks_per_machine());
}

// Property: each factory builds exactly what the generic constructor
// builds from the same per-task sets, on random inputs including n = 0.
TEST(PlacementFactories, MatchGenericConstructorOnRandomInputs) {
  std::mt19937 rng(20150525);
  for (int trial = 0; trial < 200; ++trial) {
    const MachineId m = std::uniform_int_distribution<MachineId>(1, 12)(rng);
    const std::size_t n =
        trial % 10 == 0 ? 0 : std::uniform_int_distribution<std::size_t>(1, 60)(rng);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": n=" + std::to_string(n) +
                 " m=" + std::to_string(m));

    std::vector<MachineId> machine_of(n);
    for (auto& i : machine_of) i = std::uniform_int_distribution<MachineId>(0, m - 1)(rng);
    std::vector<std::vector<MachineId>> singletons;
    for (MachineId i : machine_of) singletons.push_back({i});
    expect_same_placement(Placement::singleton(machine_of, m),
                          Placement(std::move(singletons), m));

    std::vector<MachineId> all(m);
    for (MachineId i = 0; i < m; ++i) all[i] = m - 1 - i;  // unsorted on purpose
    expect_same_placement(Placement::everywhere(n, m),
                          Placement(std::vector<std::vector<MachineId>>(n, all), m));

    std::vector<MachineId> divisors;
    for (MachineId k = 1; k <= m; ++k) {
      if (m % k == 0) divisors.push_back(k);
    }
    const MachineId k = divisors[std::uniform_int_distribution<std::size_t>(
        0, divisors.size() - 1)(rng)];
    std::vector<MachineId> group_of(n);
    for (auto& g : group_of) g = std::uniform_int_distribution<MachineId>(0, k - 1)(rng);
    std::vector<std::vector<MachineId>> groups;
    for (MachineId g : group_of) {
      std::vector<MachineId> set;
      for (MachineId i = 0; i < m / k; ++i) set.push_back(g * (m / k) + i);
      groups.push_back(std::move(set));
    }
    expect_same_placement(Placement::in_groups(group_of, k, m),
                          Placement(std::move(groups), m));
  }
}

TEST(PlacementValidation, AcceptsMatching) {
  Instance inst = Instance::from_estimates({1.0, 2.0}, 4, 1.5);
  const Placement p = Placement::everywhere(2, 4);
  EXPECT_EQ(check_placement(inst, p), "");
}

TEST(PlacementValidation, RejectsTaskCountMismatch) {
  Instance inst = Instance::from_estimates({1.0, 2.0, 3.0}, 4, 1.5);
  const Placement p = Placement::everywhere(2, 4);
  EXPECT_NE(check_placement(inst, p), "");
}

TEST(PlacementValidation, RejectsMachineCountMismatch) {
  Instance inst = Instance::from_estimates({1.0}, 4, 1.5);
  const Placement p = Placement::everywhere(1, 3);
  EXPECT_NE(check_placement(inst, p), "");
}

TEST(PlacementValidation, ThrowHelperFires) {
  EXPECT_THROW(throw_if_invalid("broken"), std::invalid_argument);
  EXPECT_NO_THROW(throw_if_invalid(""));
}

// Property sweep: group placements always produce equal-size groups that
// partition the machines.
class GroupPartitionProperty : public ::testing::TestWithParam<MachineId> {};

TEST_P(GroupPartitionProperty, GroupsPartition) {
  const MachineId k = GetParam();
  const MachineId m = 12;
  ASSERT_EQ(m % k, 0u);
  std::vector<MachineId> group_of;
  for (TaskId j = 0; j < 30; ++j) group_of.push_back(j % k);
  const Placement p = Placement::in_groups(group_of, k, m);
  // Every replica set has exactly m/k machines and sets of different
  // groups are disjoint.
  for (TaskId j = 0; j < 30; ++j) {
    EXPECT_EQ(p.replication_degree(j), static_cast<std::size_t>(m / k));
  }
  for (TaskId a = 0; a < 30; ++a) {
    for (TaskId b = a + 1; b < 30; ++b) {
      const bool same_group = group_of[a] == group_of[b];
      EXPECT_EQ(p.machines_for(a) == p.machines_for(b), same_group);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDivisors, GroupPartitionProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

}  // namespace
}  // namespace rdp
