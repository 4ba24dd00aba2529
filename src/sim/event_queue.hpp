// A general time-ordered event queue with FIFO tie-breaking. The
// dispatchers use specialized structures instead (sim/ready_heap.hpp and
// the SimEvent calendar queue in sim/workspace.hpp); this one is kept for
// the ext_sim_throughput bench, which measures the calendar queue against
// the pre-rewrite binary heap through it.
//
// The queue is a bucketed calendar queue (sim/calendar_queue.hpp), and
// pop() *moves* the event out -- a copy-out pop would pay a heap
// allocation per event for any payload with out-of-line state and
// require payloads to be copyable at all.
#pragma once

#include <cstdint>
#include <utility>

#include "core/types.hpp"
#include "sim/calendar_queue.hpp"

namespace rdp {

/// Priority queue of (time, payload) with deterministic FIFO order among
/// equal-time events (insertion sequence breaks ties). Payloads only need
/// to be movable.
template <typename Payload>
class EventQueue {
 public:
  struct Event {
    Time time;
    std::uint64_t seq;
    Payload payload;
  };

  void push(Time time, Payload payload) {
    queue_.push(Event{time, next_seq_++, std::move(payload)});
  }

  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
  [[nodiscard]] const Event& top() { return queue_.top(); }

  Event pop() { return queue_.pop(); }

 private:
  struct TimeOf {
    Time operator()(const Event& e) const noexcept { return e.time; }
  };
  struct Before {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };
  CalendarQueue<Event, TimeOf, Before> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rdp
