// Min-heap of machines keyed by (ready time, id), backed by an arena
// span so a run allocates nothing after init(). Selection order is
// identical to the retained oracle's lazy heap (LegacyMachinePool in
// check/reference_dispatcher.cpp) -- earliest ready time, then lowest id.
//
// The API is top-only (occupy_top / retire_top): every dispatcher
// operates exclusively on the machine it just selected, so the heap
// stores (ready, id) entries inline and sifts from the root. The
// classic indexed alternative (heap of ids + pos[] + ready[]) costs two
// dependent loads per comparison; inline entries cost one, and the
// child-selection compare lives in the same cache line.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "core/types.hpp"
#include "sim/arena.hpp"

namespace rdp {

class ReadyHeap {
 public:
  /// Carves the heap out of `arena` for `m` machines and heapifies the
  /// given initial ready times (empty span = all machines ready at 0).
  void init(MonotonicArena& arena, MachineId m, std::span<const Time> initial) {
    entries_ = arena.allocate_span<Entry>(m);
    size_ = m;
    for (MachineId i = 0; i < m; ++i) {
      entries_[i] = Entry{initial.empty() ? Time{0} : initial[i], i};
    }
    if (!initial.empty() && m > 1) {
      for (std::uint32_t k = size_ / 2; k-- > 0;) sift_down(k);
    }
    // All-zero ready times: the identity array is already (ready, id)
    // heap-ordered, no heapify needed.
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Machine that becomes idle next.
  [[nodiscard]] MachineId top() const noexcept { return entries_[0].id; }

  [[nodiscard]] Time top_ready() const noexcept { return entries_[0].ready; }

  /// Occupies the top machine from its ready time for `duration`;
  /// returns the (start, finish) interval. In-place increase-key.
  std::pair<Time, Time> occupy_top(Time duration) noexcept {
    const Time start = entries_[0].ready;
    const Time finish = start + duration;
    entries_[0].ready = finish;
    sift_down(0);
    return {start, finish};
  }

  /// Removes the top machine from consideration permanently.
  void retire_top() noexcept {
    --size_;
    if (size_ > 0) {
      entries_[0] = entries_[size_];
      sift_down(0);
    }
  }

  /// Re-inserts a machine that was removed with retire_top(), ready at
  /// `ready` -- how the streaming dispatcher wakes a parked machine at an
  /// arrival. The span from init() holds all m machines and a machine is
  /// in the heap at most once, so size_ never exceeds the capacity.
  void push(Time ready, MachineId id) noexcept {
    const Entry entry{ready, id};
    std::uint32_t k = size_++;
    while (k > 0) {
      const std::uint32_t parent = (k - 1) / 2;
      if (!before(entry, entries_[parent])) break;
      entries_[k] = entries_[parent];
      k = parent;
    }
    entries_[k] = entry;
  }

 private:
  struct Entry {
    Time ready;
    MachineId id;
  };

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.ready != b.ready) return a.ready < b.ready;
    return a.id < b.id;
  }

  void sift_down(std::uint32_t k) noexcept {
    const Entry moving = entries_[k];
    while (true) {
      std::uint32_t child = 2 * k + 1;
      if (child >= size_) break;
      const std::uint32_t right = child + 1;
      // Written so the child choice compiles to a conditional move; a
      // branch here mispredicts roughly every other sift level.
      child += static_cast<std::uint32_t>(right < size_ &&
                                          before(entries_[right], entries_[child]));
      if (!before(entries_[child], moving)) break;
      entries_[k] = entries_[child];
      k = child;
    }
    entries_[k] = moving;
  }

  std::span<Entry> entries_;
  std::uint32_t size_ = 0;
};

}  // namespace rdp
