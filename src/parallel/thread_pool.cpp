#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rdp {

namespace {

std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  obs::MetricsRegistry* const mx = obs::metrics();
  Task entry{std::move(task), mx || obs::tracer() ? steady_now_ns() : 0};
  std::size_t depth = 0;
  {
    std::unique_lock lock(mutex_);
    if (shutting_down_) {
      throw std::runtime_error("ThreadPool: submit after shutdown");
    }
    if (first_error_) {
      ++cancelled_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
      return;
    }
    queue_.push_back(std::move(entry));
    depth = queue_.size();
  }
  if (mx) {
    mx->counter("pool.tasks.submitted").add(1);
    // Last-write-wins current depth plus a CAS-max peak: concurrent
    // submits can reorder the set() calls, but never lose the maximum.
    mx->gauge("pool.queue_depth").set(static_cast<double>(depth));
    mx->gauge("pool.queue_depth.max").set_max(static_cast<double>(depth));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    std::rethrow_exception(e);
  }
}

std::uint64_t ThreadPool::cancelled_count() const {
  std::unique_lock lock(mutex_);
  return cancelled_;
}

// Caller holds mutex_. Drops every queued task (after the first error)
// and wakes waiters if that made the pool idle.
void ThreadPool::drop_pending_locked() {
  cancelled_ += queue_.size();
  queue_.clear();
  if (in_flight_ == 0) idle_.notify_all();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      if (first_error_) {
        drop_pending_locked();
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    obs::MetricsRegistry* const mx = obs::metrics();
    obs::Tracer* const tr = obs::tracer();
    const std::uint64_t run_start_ns = mx || tr ? steady_now_ns() : 0;
    if (mx && task.enqueue_ns != 0) {
      mx->histogram("pool.task.wait_seconds")
          .observe(static_cast<double>(run_start_ns - task.enqueue_ns) * 1e-9);
    }
    const std::uint64_t span_start_us = tr ? tr->now_us() : 0;

    try {
      task.fn();
    } catch (...) {
      std::unique_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      drop_pending_locked();
    }

    if (mx || tr) {
      const std::uint64_t run_end_ns = steady_now_ns();
      if (mx) {
        mx->counter("pool.tasks.completed").add(1);
        mx->histogram("pool.task.run_seconds")
            .observe(static_cast<double>(run_end_ns - run_start_ns) * 1e-9);
      }
      if (tr) tr->span("pool.task", "parallel", span_start_us, tr->now_us() - span_start_us);
    }

    {
      std::unique_lock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace rdp
