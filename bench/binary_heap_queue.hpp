// The event queue the failure and speculative loops used before
// SimEventQueue: a std::priority_queue binary heap of SimEvents. The
// hold-model benches (ext_sim_throughput, perf_algorithms) time the two
// against each other through pop_next.
#pragma once

#include <queue>
#include <vector>

#include "sim/workspace.hpp"

namespace rdp {

/// std::priority_queue is a max-heap, so SimEventBefore is inverted to
/// put the next event on top.
struct SimEventAfter {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    return SimEventBefore{}(b, a);
  }
};

using BinaryHeapQueue =
    std::priority_queue<SimEvent, std::vector<SimEvent>, SimEventAfter>;

inline SimEvent pop_next(SimEventQueue& queue) { return queue.pop(); }

inline SimEvent pop_next(BinaryHeapQueue& queue) {
  const SimEvent event = queue.top();
  queue.pop();
  return event;
}

}  // namespace rdp
