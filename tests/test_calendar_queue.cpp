// Property tests for the calendar event queue against an oracle binary
// heap (std::priority_queue), plus the regression tests from the hot-path
// rewrite: FIFO among equal SimEvents, move-only events and move-out pop.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "rng/rng.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/workspace.hpp"

namespace rdp {
namespace {

struct Item {
  Time time;
  std::uint64_t seq;
};

struct ItemTime {
  Time operator()(const Item& e) const noexcept { return e.time; }
};
struct ItemBefore {
  bool operator()(const Item& a, const Item& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};
// std::priority_queue is a max-heap; invert to get the min on top.
struct ItemAfter {
  bool operator()(const Item& a, const Item& b) const noexcept {
    return ItemBefore{}(b, a);
  }
};

using Calendar = CalendarQueue<Item, ItemTime, ItemBefore>;
using Oracle = std::priority_queue<Item, std::vector<Item>, ItemAfter>;

/// Random interleaving of pushes and pops; every pop is compared against
/// the oracle. `time_scale` controls bucket crowding: tiny scales pack
/// many events into one calendar year (overflow path), large scales
/// spread them out (year-advance path).
void run_interleaving(std::uint64_t seed, std::size_t ops, double time_scale) {
  Xoshiro256 rng(seed);
  Calendar calendar;
  Oracle oracle;
  std::uint64_t seq = 0;
  Time low_watermark = 0;  // pushes may not go below the last pop
  for (std::size_t op = 0; op < ops; ++op) {
    const bool push = oracle.empty() || rng.next_below(100) < 55;
    if (push) {
      // Quantized times so equal keys occur often and ties are exercised.
      const Time t =
          low_watermark + static_cast<double>(rng.next_below(64)) * time_scale;
      calendar.push(Item{t, seq});
      oracle.push(Item{t, seq});
      ++seq;
    } else {
      ASSERT_FALSE(calendar.empty());
      const Item expected = oracle.top();
      oracle.pop();
      EXPECT_EQ(calendar.top().seq, expected.seq);
      const Item got = calendar.pop();
      EXPECT_EQ(got.time, expected.time);
      ASSERT_EQ(got.seq, expected.seq) << "seed " << seed << " op " << op;
      low_watermark = got.time;
    }
    ASSERT_EQ(calendar.size(), oracle.size());
  }
  // Drain: the tails must agree element-for-element.
  while (!oracle.empty()) {
    const Item expected = oracle.top();
    oracle.pop();
    const Item got = calendar.pop();
    EXPECT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq) << "seed " << seed << " (drain)";
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueue, MatchesBinaryHeapOracleAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    run_interleaving(seed, 2000, 1.0);
  }
}

TEST(CalendarQueue, OverflowBucketsMatchOracle) {
  // All times collapse into a handful of values: every bucket overflows
  // its inline slots and the overflow heap carries most of the load.
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    run_interleaving(seed, 1500, 1e-9);
  }
}

TEST(CalendarQueue, WideTimeRangeTriggersRecalibration) {
  // Large spread then dense tail: the width fitted at the first rebuild
  // is badly wrong later, forcing the recalibration path.
  Xoshiro256 rng(7);
  Calendar calendar;
  Oracle oracle;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    const Time t = static_cast<double>(rng.next_below(1000000));
    calendar.push(Item{t, seq});
    oracle.push(Item{t, seq});
    ++seq;
  }
  // Pop half, then refill densely near the current minimum.
  for (std::size_t i = 0; i < 256; ++i) {
    const Item expected = oracle.top();
    oracle.pop();
    ASSERT_EQ(calendar.pop().seq, expected.seq);
  }
  const Time base = oracle.top().time;
  for (std::size_t i = 0; i < 4096; ++i) {
    const Time t = base + static_cast<double>(rng.next_below(16)) * 1e-3;
    calendar.push(Item{t, seq});
    oracle.push(Item{t, seq});
    ++seq;
  }
  while (!oracle.empty()) {
    const Item expected = oracle.top();
    oracle.pop();
    const Item got = calendar.pop();
    EXPECT_EQ(got.time, expected.time);
    ASSERT_EQ(got.seq, expected.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

// Equal (time, kind) finishes pop in seq order: the FIFO guarantee the
// dispatchers' binary heaps gave before the calendar queue.
TEST(CalendarQueue, EqualTimesPopInInsertionOrderThroughSimEventQueue) {
  SimEventQueue queue;
  std::uint64_t seq = 0;
  for (TaskId task = 0; task < 100; ++task) {
    queue.push(SimEvent{5.0, kSimEventFinish, 0, task, 0, seq++});
  }
  queue.push(SimEvent{1.0, kSimEventFinish, 0, 1000, 0, seq++});
  EXPECT_EQ(queue.pop().task, 1000u);
  for (TaskId task = 0; task < 100; ++task) {
    EXPECT_EQ(queue.pop().task, task) << "FIFO order broken at " << task;
  }
  EXPECT_TRUE(queue.empty());
}

// The hold-model benches time SimEventQueue against a std::priority_queue
// ordered by the inverted SimEventBefore and diff their pop streams; the
// two must agree on every tie rule (kind, free machine id, seq).
TEST(CalendarQueue, SimEventQueueMatchesBinaryHeap) {
  struct SimEventAfter {
    bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
      return SimEventBefore{}(b, a);
    }
  };
  Xoshiro256 rng(3);
  SimEventQueue calendar;
  std::priority_queue<SimEvent, std::vector<SimEvent>, SimEventAfter> heap;
  std::uint64_t seq = 0;
  Time now = 0;
  const auto push = [&] {
    const SimEvent event{now + static_cast<Time>(rng.next_below(8)),
                         static_cast<std::uint8_t>(rng.next_below(3)),
                         static_cast<MachineId>(rng.next_below(4)),
                         static_cast<TaskId>(seq), 0, seq};
    ++seq;
    calendar.push(event);
    heap.push(event);
  };
  for (int i = 0; i < 256; ++i) push();
  for (int op = 0; op < 5000; ++op) {
    const SimEvent expected = heap.top();
    heap.pop();
    const SimEvent got = calendar.pop();
    ASSERT_EQ(got.seq, expected.seq) << "op " << op;
    now = got.when;
    push();
  }
  EXPECT_EQ(calendar.size(), heap.size());
}

// Events that own out-of-line state: pop() *moves* the minimum out, so
// move-only events compile and round-trip, and nothing is copied on the
// push/pop path (a copy-out pop would pay an allocation per event).
template <typename Payload>
struct OwningEvent {
  Time time;
  std::uint64_t seq;
  Payload payload;
};
struct OwningTime {
  template <typename Payload>
  Time operator()(const OwningEvent<Payload>& e) const noexcept {
    return e.time;
  }
};
struct OwningBefore {
  template <typename Payload>
  bool operator()(const OwningEvent<Payload>& a,
                  const OwningEvent<Payload>& b) const noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};
template <typename Payload>
using OwningQueue = CalendarQueue<OwningEvent<Payload>, OwningTime, OwningBefore>;

TEST(CalendarQueue, SupportsMoveOnlyEvents) {
  using Event = OwningEvent<std::unique_ptr<int>>;
  OwningQueue<std::unique_ptr<int>> queue;
  queue.push(Event{2.0, 0, std::make_unique<int>(2)});
  queue.push(Event{1.0, 1, std::make_unique<int>(1)});
  queue.push(Event{3.0, 2, std::make_unique<int>(3)});
  for (int expect = 1; expect <= 3; ++expect) {
    const Event event = queue.pop();
    ASSERT_NE(event.payload, nullptr);
    EXPECT_EQ(*event.payload, expect);
  }
  EXPECT_TRUE(queue.empty());
}

struct CopyCounter {
  static int copies;
  int value = 0;
  CopyCounter() = default;
  explicit CopyCounter(int v) : value(v) {}
  CopyCounter(const CopyCounter& other) : value(other.value) { ++copies; }
  CopyCounter& operator=(const CopyCounter& other) {
    value = other.value;
    ++copies;
    return *this;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(CopyCounter&&) noexcept = default;
};
int CopyCounter::copies = 0;

TEST(CalendarQueue, PopMovesTheEventOut) {
  using Event = OwningEvent<CopyCounter>;
  OwningQueue<CopyCounter> queue;
  CopyCounter::copies = 0;
  for (int v = 0; v < 64; ++v) {
    queue.push(Event{static_cast<Time>(v % 7), static_cast<std::uint64_t>(v),
                     CopyCounter(v)});
  }
  long long sum = 0;
  while (!queue.empty()) sum += queue.pop().payload.value;
  EXPECT_EQ(sum, 63 * 64 / 2);
  EXPECT_EQ(CopyCounter::copies, 0) << "push/pop path copied an event";
}

}  // namespace
}  // namespace rdp
