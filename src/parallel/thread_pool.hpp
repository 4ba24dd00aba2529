// A fixed-size worker pool for the experiment harness. Tasks are
// arbitrary void() callables; submit() returns immediately and wait_idle()
// blocks until the queue drains. Exceptions thrown by tasks are captured
// and rethrown from wait_idle() (first one wins). Tasks that have not
// started when the first error is recorded are dropped instead of
// executed, so a failing parallel sweep stops scheduling new cells.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rdp {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Throws std::runtime_error after shutdown began.
  /// A task submitted while an unconsumed error is pending is silently
  /// dropped (wait_idle() will rethrow the error).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task finished or was cancelled;
  /// rethrows the first task exception, if any (and clears it, returning
  /// the pool to a usable state).
  void wait_idle();

  [[nodiscard]] std::size_t num_threads() const noexcept { return workers_.size(); }

  /// Tasks dropped after an error since construction (observability).
  [[nodiscard]] std::uint64_t cancelled_count() const;

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;  // 0 when observability was off at submit
  };

  void worker_loop();
  void drop_pending_locked();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<Task> queue_;
  std::vector<std::thread> workers_;
  std::size_t in_flight_ = 0;
  std::uint64_t cancelled_ = 0;
  bool shutting_down_ = false;
  std::exception_ptr first_error_;
};

}  // namespace rdp
