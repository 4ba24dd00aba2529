// Tests for the locality-aware transfer-cost dispatcher.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/transfer_dispatcher.hpp"

namespace rdp {
namespace {

std::vector<TaskId> identity(std::size_t n) {
  std::vector<TaskId> p(n);
  for (TaskId j = 0; j < n; ++j) p[j] = j;
  return p;
}

TEST(TransferDispatch, FullReplicationNeverFetches) {
  Instance inst = Instance::from_estimates({3.0, 2.0, 1.0}, 2, 1.0);
  const Placement p = Placement::everywhere(3, 2);
  const Realization r = exact_realization(inst);
  TransferModel model;
  model.bandwidth = 0.1;
  const TransferDispatchResult result =
      dispatch_with_transfers(inst, p, r, identity(3), model);
  EXPECT_EQ(result.remote_runs, 0u);
  EXPECT_DOUBLE_EQ(result.transfer_time, 0.0);
  // Matches the plain dispatcher exactly.
  const DispatchResult plain = dispatch_online(inst, p, r, identity(3));
  EXPECT_DOUBLE_EQ(result.makespan, plain.schedule.makespan());
}

TEST(TransferDispatch, RemoteRunPaysFetch) {
  // Both tasks pinned to machine 0; machine 1 steals the second one,
  // paying latency + size/bandwidth.
  Instance inst({{4.0, 2.0}, {4.0, 2.0}}, 2, 1.0);
  const Placement p = Placement::singleton({0, 0}, 2);
  const Realization r = exact_realization(inst);
  TransferModel model;
  model.bandwidth = 1.0;
  model.latency = 0.5;
  const TransferDispatchResult result =
      dispatch_with_transfers(inst, p, r, identity(2), model);
  EXPECT_EQ(result.remote_runs, 1u);
  EXPECT_DOUBLE_EQ(result.transfer_time, 2.5);  // 0.5 + 2/1
  // Machine 0 runs task 0 locally (4); machine 1 runs task 1 with fetch
  // (4 + 2.5 = 6.5).
  EXPECT_EQ(result.schedule.assignment[0], 0u);
  EXPECT_EQ(result.schedule.assignment[1], 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 6.5);
}

TEST(TransferDispatch, LocalityPreferredOverPriority) {
  // Machine 1 idles with a local low-priority task and a remote
  // high-priority task waiting: it must take the local one.
  Instance inst({{9.0, 1.0}, {5.0, 1.0}, {4.0, 1.0}}, 2, 1.0);
  // Task 0 and 1 on machine 0; task 2 on machine 1.
  const Placement p = Placement::singleton({0, 0, 1}, 2);
  const Realization r = exact_realization(inst);
  TransferModel model;
  model.bandwidth = 0.01;  // fetches are very expensive
  const TransferDispatchResult result =
      dispatch_with_transfers(inst, p, r, identity(3), model);
  // t=0: m0 takes task 0 (local), m1 takes task 2 (local, skipping the
  // higher-priority remote task 1).
  EXPECT_EQ(result.schedule.assignment[2], 1u);
  EXPECT_DOUBLE_EQ(result.schedule.start[2], 0.0);
}

TEST(TransferDispatch, InfiniteBandwidthErasesPlacement) {
  Instance inst = Instance::from_estimates({5.0, 4.0, 3.0, 2.0, 1.0}, 3, 1.0);
  const Placement pinned = Placement::singleton({0, 0, 0, 0, 0}, 3);
  const Realization r = exact_realization(inst);
  TransferModel model;
  model.bandwidth = 1e12;
  const TransferDispatchResult pinned_run =
      dispatch_with_transfers(inst, pinned, r, identity(5), model);
  const DispatchResult free_run =
      dispatch_online(inst, Placement::everywhere(5, 3), r, identity(5));
  EXPECT_NEAR(pinned_run.makespan, free_run.schedule.makespan(), 1e-6);
}

TEST(TransferDispatch, LowBandwidthApproachesPinnedBehaviour) {
  // With near-zero bandwidth no machine should *want* remote work unless
  // idle forever; the makespan approaches the static pinned one whenever
  // stealing is never profitable. (Machines with nothing local do steal
  // -- they have no better use of their time -- so we only check the
  // makespan is at least the pinned local load.)
  Instance inst = Instance::from_estimates({6.0, 5.0, 4.0}, 2, 1.0);
  const Placement p = Placement::singleton({0, 0, 0}, 2);
  const Realization r = exact_realization(inst);
  TransferModel model;
  model.bandwidth = 1e-6;
  const TransferDispatchResult result =
      dispatch_with_transfers(inst, p, r, identity(3), model);
  // Machine 1 steals something at gigantic cost; the local machine
  // finishes the rest quickly. Makespan is dominated by the fetch.
  EXPECT_GT(result.makespan, 1e5);
  EXPECT_GE(result.remote_runs, 1u);
}

TEST(TransferDispatch, RemoteRunsTakeTasksBehindTheLocalQueueHead) {
  // Every task is pinned to machine 0. At t=0 machine 0 takes task 0,
  // and machines 1 and 2, with nothing local, steal tasks 1 and 2 -- the
  // second steal takes a task queued behind one already taken remotely.
  // When machine 0 frees at t=1 it must skip both stolen tasks and run
  // task 3 locally.
  Instance inst({{1.0, 1.0}, {5.0, 1.0}, {5.0, 1.0}, {1.0, 1.0}}, 3, 1.0);
  const Placement p = Placement::singleton({0, 0, 0, 0}, 3);
  const Realization r = exact_realization(inst);
  TransferModel model;
  model.bandwidth = 10.0;
  const TransferDispatchResult result =
      dispatch_with_transfers(inst, p, r, identity(4), model);
  EXPECT_EQ(result.remote_runs, 2u);
  EXPECT_DOUBLE_EQ(result.transfer_time, 0.2);
  EXPECT_EQ(result.schedule.assignment[1], 1u);
  EXPECT_EQ(result.schedule.assignment[2], 2u);
  EXPECT_EQ(result.schedule.assignment[3], 0u);
  EXPECT_DOUBLE_EQ(result.schedule.start[3], 1.0);
  EXPECT_DOUBLE_EQ(result.schedule.finish[3], 2.0);  // local: no fetch
  EXPECT_EQ(result.trace.size(), 4u);
}

TEST(TransferDispatch, ValidatesInputs) {
  Instance inst = Instance::from_estimates({1.0}, 1, 1.0);
  const Placement p = Placement::singleton({0}, 1);
  const Realization r = exact_realization(inst);
  TransferModel bad;
  bad.bandwidth = 0.0;
  EXPECT_THROW((void)dispatch_with_transfers(inst, p, r, identity(1), bad),
               std::invalid_argument);
  // A NaN latency once came back as a finite makespan (the NaN-length
  // remote runs drop out of it) and an infinite one as makespan inf.
  for (const Time latency : {Time{-1.0}, std::numeric_limits<Time>::quiet_NaN(),
                             std::numeric_limits<Time>::infinity()}) {
    TransferModel model;
    model.latency = latency;
    try {
      (void)dispatch_with_transfers(inst, p, r, identity(1), model);
      ADD_FAILURE() << "latency " << latency << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "dispatch_with_transfers: latency must be finite and non-negative");
    }
  }
  TransferModel ok;
  EXPECT_THROW((void)dispatch_with_transfers(inst, p, r, {0, 0}, ok),
               std::invalid_argument);
  // A placement built for a different machine count than the instance.
  EXPECT_THROW((void)dispatch_with_transfers(inst, Placement::singleton({0}, 2), r,
                                             identity(1), ok),
               std::invalid_argument);
}

TEST(TransferDispatch, RejectsNonFiniteOrNegativeDurations) {
  // A NaN duration once came back as a schedule with makespan 7.23.
  const Instance inst = Instance::from_estimates({1.0, 2.0, 3.0, 4.0, 5.0}, 2, 1.5);
  const Placement p = Placement::everywhere(5, 2);
  for (const Time bad : {std::numeric_limits<Time>::quiet_NaN(), Time{-1.0},
                         std::numeric_limits<Time>::infinity()}) {
    Realization r = exact_realization(inst);
    r.actual[3] = bad;
    try {
      (void)dispatch_with_transfers(inst, p, r, identity(5), TransferModel{});
      ADD_FAILURE() << "duration " << bad << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "dispatch_with_transfers: actual durations must be finite and "
                "non-negative");
    }
  }
}

TEST(TransferDispatch, TraceCoversAllTasks) {
  Instance inst = Instance::from_estimates({2.0, 2.0, 2.0, 2.0}, 2, 1.0);
  const Placement p = Placement::singleton({0, 0, 1, 1}, 2);
  const Realization r = exact_realization(inst);
  const TransferDispatchResult result =
      dispatch_with_transfers(inst, p, r, identity(4), TransferModel{});
  EXPECT_EQ(result.trace.size(), 4u);
}

}  // namespace
}  // namespace rdp
