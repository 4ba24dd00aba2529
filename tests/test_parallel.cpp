// Tests for the thread pool and parallel_for substrate, including the
// cancel-on-first-error policy and its agreement with the sweep engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace rdp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is cleared; the pool remains usable.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPool, ManyWaves) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 20; ++i) {
      pool.submit([&counter] { ++counter; });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_each_index(pool, hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, BlockedRangesPartition) {
  ThreadPool pool(2);
  std::vector<int> data(777, 0);
  parallel_for_blocked(
      pool, data.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) data[i] += 1;
      },
      /*block=*/50);
  EXPECT_EQ(std::accumulate(data.begin(), data.end(), 0), 777);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_each_index(pool, 0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ExceptionFromBodyPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for_each_index(
                   pool, 10,
                   [](std::size_t i) {
                     if (i == 5) throw std::logic_error("bad index");
                   }),
               std::logic_error);
}

TEST(ThreadPool, CancelPendingDropsQueuedTasksAfterError) {
  // One worker: the throwing task runs first, so every queued task after
  // it must be dropped -- deterministically zero side effects.
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(counter.load(), 0);
  EXPECT_EQ(pool.cancelled_count(), 100u);
  // The error was consumed: the pool is usable again.
  pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(Sweep, ParallelSingleThreadStopsSchedulingAfterError) {
  // With one worker, block execution is sequential: nothing after the
  // throwing block runs and unrun result slots keep their initialized
  // state.
  std::vector<std::uint64_t> seeds(200);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i;
  const auto grid = make_grid({2}, {1.5}, seeds);
  std::vector<int> results(grid.size(), -1);
  std::atomic<std::size_t> visits{0};
  ThreadPool pool(1);
  EXPECT_THROW(
      run_sweep_parallel(pool, grid,
                         [&](const SweepCell& cell) {
                           visits.fetch_add(1, std::memory_order_relaxed);
                           if (cell.index == 0) throw std::runtime_error("cell 0");
                           results[cell.index] = static_cast<int>(cell.index);
                         }),
      std::runtime_error);
  EXPECT_EQ(visits.load(), 1u);  // the throwing cell only
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], -1) << "cell " << i << " ran after the error";
  }
}

TEST(Sweep, ParallelMultiThreadCancelsPendingCells) {
  // Multi-threaded: blocks already in flight when the error lands may
  // finish, but queued blocks must be dropped, so far fewer than all
  // cells run and every unrun slot keeps its sentinel.
  std::vector<std::uint64_t> seeds(400);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i;
  const auto grid = make_grid({2}, {1.5}, seeds);
  std::vector<std::atomic<int>> ran(grid.size());
  for (auto& r : ran) r.store(0);
  ThreadPool pool(4);
  EXPECT_THROW(
      run_sweep_parallel(pool, grid,
                         [&](const SweepCell& cell) {
                           if (cell.index == 0) throw std::runtime_error("cell 0");
                           std::this_thread::sleep_for(std::chrono::microseconds(200));
                           ran[cell.index].store(1);
                         }),
      std::runtime_error);
  std::size_t executed = 0;
  for (const auto& r : ran) executed += static_cast<std::size_t>(r.load());
  EXPECT_LT(executed, grid.size());
  EXPECT_GT(pool.cancelled_count(), 0u);
}

}  // namespace
}  // namespace rdp
