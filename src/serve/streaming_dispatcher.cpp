#include "serve/streaming_dispatcher.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/instance.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/ready_heap.hpp"
#include "sim/set_queues.hpp"
#include "sim/workspace.hpp"

namespace rdp {

namespace {

/// 64^6 slots -- more than any addressable task count.
constexpr std::uint32_t kMaxLevels = 6;

/// Hierarchical bitmaps over each queue's rank slots (slot s = position
/// in the queue's priority-sorted CSR slice). Admission sets bit s;
/// "highest-priority admitted task" is the cached minimum slot, repaired
/// on pop by a find-first-set walk over ceil(log64) summary levels
/// instead of a comparison heap's log2 sift. Level 0 has one bit per
/// slot; bit w of level l+1 is the OR of word w of level l, so the top
/// level of every queue is a single word.
struct QueueBitmaps {
  std::uint64_t* words = nullptr;        ///< all queues' levels, zeroed
  const std::uint32_t* level_off = nullptr;  ///< [q * kMaxLevels + l] word offset
  const std::uint8_t* num_levels = nullptr;  ///< per queue
  std::uint32_t* min_slot = nullptr;  ///< lowest set slot; ~0u = queue empty

  void set(std::uint32_t q, std::uint32_t slot) noexcept {
    if (slot < min_slot[q]) min_slot[q] = slot;  // ~0u sentinel when empty
    const std::uint32_t* off = level_off + q * kMaxLevels;
    const std::uint32_t levels = num_levels[q];
    std::uint32_t idx = slot;
    for (std::uint32_t l = 0;;) {
      std::uint64_t& w = words[off[l] + (idx >> 6)];
      const std::uint64_t prev = w;
      w = prev | (std::uint64_t{1} << (idx & 63));
      // A previously nonempty word means its ancestor bit -- and by
      // induction every higher one -- is already set, so dense backlogs
      // make admission a single read-modify-write with no upward probe.
      if (prev != 0 || ++l == levels) break;
      idx >>= 6;
    }
  }

  /// Clears the minimum slot and repairs the cache with its successor.
  /// Queue must be non-empty; returns the popped slot. The popped slot is
  /// the minimum, so within every touched word no bit below it is set --
  /// the successor is the word's new lowest bit, found without masking.
  /// Common case (a sibling in the same level-0 word, which dense
  /// backlogs hit almost always): one read-modify-write and one ctz.
  std::uint32_t pop_min(std::uint32_t q) noexcept {
    const std::uint32_t slot = min_slot[q];
    const std::uint32_t* off = level_off + q * kMaxLevels;
    const std::uint32_t levels = num_levels[q];
    std::uint32_t idx = slot;
    std::uint32_t l = 0;
    while (true) {
      std::uint64_t& w = words[off[l] + (idx >> 6)];
      w &= ~(std::uint64_t{1} << (idx & 63));
      if (w != 0) {
        std::uint32_t next =
            (idx & ~63u) + static_cast<std::uint32_t>(std::countr_zero(w));
        for (std::uint32_t l2 = l; l2-- > 0;) {
          next = (next << 6) + static_cast<std::uint32_t>(
                                   std::countr_zero(words[off[l2] + next]));
        }
        min_slot[q] = next;
        return slot;
      }
      if (++l == levels) {
        min_slot[q] = UINT32_MAX;
        return slot;
      }
      idx >>= 6;
    }
  }
};

}  // namespace

void serve_stream(const Instance& instance, const Placement& placement,
                  const Realization& actual, const std::vector<TaskId>& priority,
                  std::span<const Time> arrivals,
                  std::span<const Time> initial_ready,
                  std::span<const double> speeds, SimWorkspace& ws,
                  StreamingDispatchResult& out) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (placement.num_tasks() != n) {
    throw std::invalid_argument("serve_stream: placement size mismatch");
  }
  if (placement.num_machines() != m) {
    throw std::invalid_argument(
        "serve_stream: placement built for a different machine count");
  }
  if (actual.size() != n) {
    throw std::invalid_argument("serve_stream: realization size mismatch");
  }
  if (priority.size() != n) {
    throw std::invalid_argument("serve_stream: priority must cover every task");
  }
  if (arrivals.size() != n) {
    throw std::invalid_argument("serve_stream: arrivals must cover every task");
  }
  // Validation fused with the sortedness probe: generated arrival
  // streams are already non-decreasing, in which case ascending id IS
  // the (time, id) admission order and the sort below is skipped.
  bool arrivals_sorted = true;
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    const Time t = arrivals[j];
    if (!(t >= 0.0) || !std::isfinite(t)) {
      throw std::invalid_argument(
          "serve_stream: arrival times must be finite and non-negative");
    }
    arrivals_sorted &= (j == 0 || arrivals[j - 1] <= t);
  }
  Time min_initial = 0;
  if (!initial_ready.empty()) {
    if (initial_ready.size() != m) {
      throw std::invalid_argument("serve_stream: initial_ready size mismatch");
    }
    min_initial = initial_ready[0];
    for (Time t : initial_ready) {
      if (!(t >= 0.0) || !std::isfinite(t)) {
        throw std::invalid_argument(
            "serve_stream: initial_ready times must be finite and non-negative");
      }
      min_initial = std::min(min_initial, t);
    }
  }
  if (!speeds.empty()) {
    if (speeds.size() != m) {
      throw std::invalid_argument("serve_stream: speeds size mismatch");
    }
    for (double s : speeds) {
      if (!(s > 0.0)) {
        throw std::invalid_argument("serve_stream: speeds must be positive");
      }
    }
  }

  // Equal-time cohort (drain mode), decided before the build passes:
  // every task is released at one instant no later than the first
  // machine's ready time, so the stream is exhausted before anything
  // dispatches. The cohort run never reads queue_slot_of, the bitmaps,
  // or tail_pos (its tail is the identity over CSR positions), so their
  // fill work is skipped wholesale below.
  const bool cohort_fast = n > 0 && m > 0 && arrivals_sorted &&
                           arrivals[0] == arrivals[n - 1] &&
                           arrivals[0] <= min_initial;

  ws.begin_run(n, m);
  MonotonicArena& arena = ws.arena;

  // The replica-set queues are dispatch_online's (sim/set_queues.hpp),
  // with slot-indexed durations and the per-task slot map filled in the
  // same pass. slot_of[j] is packed (queue << 32 | slot): the admission
  // hot path reads one word instead of chasing set_id and a slot map
  // separately. The one addition: each queue's slice gets a hierarchical
  // bitmap over its slots, because here a slot only becomes eligible at
  // its task's arrival -- the offline head pointer turns into
  // find-first-set over the admitted bits.
  const std::span<Time> queue_durations = arena.allocate_span<Time>(n);
  const std::span<std::uint64_t> queue_slot_of =
      cohort_fast ? std::span<std::uint64_t>{}
                  : arena.allocate_span<std::uint64_t>(n);
  SetQueues queues;
  queues.build(arena, placement, priority,
               "serve_stream: priority is not a permutation",
               [&](std::uint32_t pos, TaskId j, std::uint32_t) {
                 if (!cohort_fast) {
                   const std::uint32_t q = placement.set_id(j);
                   queue_slot_of[j] = (std::uint64_t{q} << 32) | (pos - queues.begin[q]);
                 }
                 queue_durations[pos] = actual[j];
               });
  const std::uint32_t num_queues = queues.count;
  const std::span<std::uint32_t> queue_begin = queues.begin;
  const std::span<TaskId> queue_tasks = queues.tasks;
  const std::span<std::uint32_t> queue_ranks = queues.ranks;
  const std::span<std::uint32_t> machine_begin = queues.machine_begin;
  const std::span<std::uint32_t> machine_queues = queues.machine_queues;
  const std::span<std::uint32_t> machine_queue_of = queues.machine_queue_of;
  const bool single_queue_machines = queues.single_queue_machines;

  // Bitmap geometry: per queue, level word counts shrink by 64x until a
  // single word covers the whole slice.
  const std::span<std::uint32_t> level_off =
      arena.allocate_span<std::uint32_t>(num_queues * kMaxLevels);
  const std::span<std::uint8_t> num_levels =
      arena.allocate_span<std::uint8_t>(num_queues);
  std::uint32_t total_words = 0;
  for (std::uint32_t q = 0; q < num_queues; ++q) {
    std::uint32_t count =
        std::max<std::uint32_t>(1, (placement.set_population(q) + 63) / 64);
    std::uint32_t level = 0;
    while (true) {
      level_off[q * kMaxLevels + level] = total_words;
      total_words += count;
      ++level;
      if (count == 1) break;
      count = (count + 63) / 64;
    }
    num_levels[q] = static_cast<std::uint8_t>(level);
  }
  const std::span<std::uint64_t> words =
      arena.make_span<std::uint64_t>(total_words, 0);
  const std::span<std::uint32_t> queue_min =
      arena.make_span<std::uint32_t>(num_queues, UINT32_MAX);
  QueueBitmaps bitmaps{words.data(), level_off.data(), num_levels.data(),
                       queue_min.data()};
  // Frozen-tail storage (see the dispatch loop): once the stream is
  // exhausted the admitted set never changes again and every future pop
  // takes the set bits in ascending order, so each queue's surviving
  // slots are compacted into this dense CSR-position list and the rest
  // of the run drains through head pointers at dispatch_online speed.
  const std::span<std::uint32_t> tail_pos =
      cohort_fast ? std::span<std::uint32_t>{}
                  : arena.allocate_span<std::uint32_t>(n);
  const std::span<std::uint32_t> tail_head =
      arena.allocate_span<std::uint32_t>(num_queues);
  const std::span<std::uint32_t> tail_end =
      arena.allocate_span<std::uint32_t>(num_queues);
  bool tail_mode = false;
  // Cohort runs keep tail_pos as the identity instead of materializing it.
  const bool tail_identity = cohort_fast;

  // Admission order: (arrival time, task id).
  std::span<TaskId> order;
  if (!arrivals_sorted) {
    order = arena.allocate_span<TaskId>(n);
    for (TaskId j = 0; j < n; ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      if (arrivals[a] != arrivals[b]) return arrivals[a] < arrivals[b];
      return a < b;
    });
  }

  // Parked machines are out of the pool, idle with no admitted work but
  // more arrivals possible on their queues; an admission re-inserts one
  // ready at the arrival time. When every machine serves at most one
  // queue, a parked machine of q proves q holds no admitted task, and all
  // arrivals at one instant are admitted in one burst, so a burst of k
  // tasks into q is taken by the k lowest ids among q's parked machines
  // and those freeing at that instant. Waking only the lowest parked id
  // per admission therefore wakes every machine that would take a task,
  // and the pop order -- (ready, id) is a strict total order -- is
  // unchanged. Each queue keeps a bitmap over the positions of its sorted
  // distinct_set(q) (m bits in all); parking sets the machine's bit and
  // an admission pops the lowest. With overlapping sets a woken machine
  // may take another queue's task instead, so there every parked machine
  // of q wakes and all but the takers park again.
  std::span<std::uint32_t> parked_word_begin;  // per queue, count + 1
  std::span<std::uint32_t> parked_bit_of;      // per machine
  std::span<std::uint64_t> parked_words;
  std::span<std::uint8_t> parked;  // overlapping sets: 1 while parked
  std::uint32_t parked_count = 0;
  if (single_queue_machines) {
    parked_word_begin = arena.allocate_span<std::uint32_t>(num_queues + 1);
    parked_bit_of = arena.allocate_span<std::uint32_t>(m);
    parked_word_begin[0] = 0;
    for (std::uint32_t q = 0; q < num_queues; ++q) {
      const std::vector<MachineId>& set = placement.distinct_set(q);
      for (std::uint32_t k = 0; k < set.size(); ++k) {
        parked_bit_of[set[k]] = parked_word_begin[q] * 64 + k;
      }
      parked_word_begin[q + 1] =
          parked_word_begin[q] + static_cast<std::uint32_t>((set.size() + 63) / 64);
    }
    parked_words = arena.make_span<std::uint64_t>(parked_word_begin[num_queues], 0);
  } else {
    parked = arena.make_span<std::uint8_t>(m, 0);
  }
  std::size_t wakes = 0;
  std::size_t parks = 0;

  obs::MetricsRegistry* const mx = obs::metrics();
  obs::Tracer* const tr = obs::tracer();
  obs::ScopedSpan span(tr, "serve_stream", "serve");

  out.schedule.assignment.machine_of.resize(n);
  out.schedule.start.resize(n);
  out.schedule.finish.resize(n);
  out.trace.events.resize(n);
  DispatchEvent* const trace_out = out.trace.events.data();
  std::size_t emitted = 0;
  out.peak_backlog = 0;

  ReadyHeap pool;
  pool.init(arena, m, initial_ready);

  // Two sources of "now": the next arrival (cursor into the admission
  // order) and the next machine to come free (pool top). Ties go to the
  // arrival -- every task arriving at time t is admitted before any
  // machine freed at t dispatches, so a batch of simultaneous arrivals
  // (drain mode: all of them) is fully visible to every machine, which is
  // what makes the bit-parity with dispatch_online hold. Machines freed
  // or woken at the same instant leave the pool in id order, matching the
  // offline ReadyHeap tie-break.
  //
  // The loop runs in batches: admit every arrival due by the time the
  // next machine frees, then dispatch every machine freeing before the
  // next arrival. In drain mode the first batch admits everything and
  // the dispatch phase becomes one uninterrupted run -- the same tight
  // loop shape as dispatch_online.
  const Time kNever = std::numeric_limits<Time>::infinity();
  std::size_t cursor = 0;
  TaskId next_task = 0;
  Time next_when = kNever;
  if (n > 0) {
    next_task = order.empty() ? TaskId{0} : order[0];
    next_when = arrivals[next_task];
  }
  std::size_t backlog = 0;
  std::size_t peak_backlog = 0;
  std::size_t remaining = n;

  // Equal-time cohort fast path: the stream is exhausted before anything
  // dispatches, so enter tail mode immediately with every queue's full
  // slice (the identity over CSR positions -- nothing to materialize).
  if (cohort_fast) {
    for (std::uint32_t q = 0; q < num_queues; ++q) {
      tail_head[q] = queue_begin[q];
      tail_end[q] = queue_begin[q + 1];
    }
    tail_mode = true;
    cursor = n;
    next_when = kNever;
    backlog = n;
    peak_backlog = n;
  }

  while (remaining > 0) {
    // --- admission phase -------------------------------------------------
    // Backlog accounting is batched: within one admission burst backlog
    // only rises (dispatches happen in the other phase), so the peak
    // check runs once per burst instead of once per task.
    Time next_free = pool.empty() ? kNever : pool.top_ready();
    if (cursor < n && next_when <= next_free) {
      const std::size_t burst_start = cursor;
      do {
        const TaskId j = next_task;
        const std::uint64_t qs = queue_slot_of[j];
        const auto q = static_cast<std::uint32_t>(qs >> 32);
        bitmaps.set(q, static_cast<std::uint32_t>(qs));
        if (single_queue_machines) {
          for (std::uint32_t w = parked_word_begin[q]; w < parked_word_begin[q + 1];
               ++w) {
            std::uint64_t& bits = parked_words[w];
            if (bits == 0) continue;
            const auto k = (w - parked_word_begin[q]) * 64 +
                           static_cast<std::uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
            pool.push(next_when, placement.distinct_set(q)[k]);
            ++wakes;
            // The woken machine is ready now, before any later arrival
            // in this batch; it dispatches in between.
            next_free = next_when;
            break;
          }
        } else if (parked_count > 0) {
          for (MachineId i : placement.distinct_set(q)) {
            if (parked[i]) {
              parked[i] = 0;
              --parked_count;
              pool.push(next_when, i);
              ++wakes;
            }
          }
          // A woken machine may now free before later arrivals in this
          // batch; re-read the horizon so it dispatches in between.
          next_free = pool.empty() ? kNever : pool.top_ready();
        }
        if (++cursor >= n) {
          next_when = kNever;
          break;
        }
        next_task = order.empty() ? static_cast<TaskId>(cursor) : order[cursor];
        next_when = arrivals[next_task];
      } while (next_when <= next_free);
      backlog += cursor - burst_start;
      peak_backlog = std::max(peak_backlog, backlog);
    }
    if (!tail_mode && cursor >= n) {
      // Stream exhausted: freeze the admitted set. Every pop from here
      // on takes each queue's set bits in ascending slot order, so one
      // O(n/64) word walk compacts the survivors into tail_pos and the
      // bitmaps retire -- the (usually long) drain tail runs on head
      // pointers instead of a read-modify-write per dispatch.
      for (std::uint32_t q = 0; q < num_queues; ++q) {
        const std::uint64_t* w = words.data() + level_off[q * kMaxLevels];
        const std::uint32_t base = queue_begin[q];
        const std::uint32_t nw = (queue_begin[q + 1] - base + 63) / 64;
        std::uint32_t write = base;
        tail_head[q] = base;
        for (std::uint32_t k = 0; k < nw; ++k) {
          std::uint64_t bits = w[k];
          const std::uint32_t word_base = base + k * 64;
          while (bits != 0) {
            tail_pos[write++] =
                word_base + static_cast<std::uint32_t>(std::countr_zero(bits));
            bits &= bits - 1;
          }
        }
        tail_end[q] = write;
      }
      tail_mode = true;
    }
    if (pool.empty()) {
      // Unreachable for a valid placement: machines only stop (neither
      // busy nor parked) once their queues are drained AND fully arrived.
      throw std::logic_error("serve_stream: deadlock (all machines stopped)");
    }

    // --- dispatch phase --------------------------------------------------
    if (tail_mode) {
      // Frozen-tail variant: the stream is exhausted (next_when is
      // infinite, so no time guard), fronts are head pointers into
      // tail_pos, and machines out of work retire for good.
      while (remaining > 0 && !pool.empty()) {
        const MachineId i = pool.top();
        std::uint32_t best_queue = UINT32_MAX;
        if (single_queue_machines) {
          const std::uint32_t q = machine_queue_of[i];
          if (q != UINT32_MAX && tail_head[q] != tail_end[q]) best_queue = q;
        } else {
          std::uint32_t best_rank = UINT32_MAX;
          for (std::uint32_t k = machine_begin[i]; k < machine_begin[i + 1];
               ++k) {
            const std::uint32_t q = machine_queues[k];
            const std::uint32_t h = tail_head[q];
            if (h == tail_end[q]) continue;
            const std::uint32_t r = queue_ranks[tail_identity ? h : tail_pos[h]];
            if (r < best_rank) {
              best_rank = r;
              best_queue = q;
            }
          }
        }
        if (best_queue == UINT32_MAX) {
          pool.retire_top();
          continue;
        }
        const std::uint32_t hp = tail_head[best_queue]++;
        const std::uint32_t pos = tail_identity ? hp : tail_pos[hp];
        const TaskId j = queue_tasks[pos];
        const Time duration = speeds.empty()
                                  ? queue_durations[pos]
                                  : queue_durations[pos] / speeds[i];
        const auto [start, finish] = pool.occupy_top(duration);
        (void)finish;
        trace_out[emitted++] = DispatchEvent{start, j, i, duration};
        --backlog;
        --remaining;
      }
      continue;
    }
    while (remaining > 0 && !pool.empty() && pool.top_ready() < next_when) {
      const MachineId i = pool.top();

      // The queue whose admitted front this machine runs next. The
      // cached minimum slot makes each candidate's front an O(1) read
      // (~0u doubles as the emptiness sentinel).
      std::uint32_t best_queue = UINT32_MAX;
      if (single_queue_machines) {
        const std::uint32_t q = machine_queue_of[i];
        if (q != UINT32_MAX && bitmaps.min_slot[q] != UINT32_MAX) {
          best_queue = q;
        }
      } else {
        std::uint32_t best_rank = UINT32_MAX;
        for (std::uint32_t k = machine_begin[i]; k < machine_begin[i + 1];
             ++k) {
          const std::uint32_t q = machine_queues[k];
          const std::uint32_t slot = bitmaps.min_slot[q];
          if (slot == UINT32_MAX) continue;
          const std::uint32_t r = queue_ranks[queue_begin[q] + slot];
          if (r < best_rank) {
            best_rank = r;
            best_queue = q;
          }
        }
      }
      if (best_queue == UINT32_MAX) {
        // Nothing admitted but arrivals are still flowing: park, so a
        // future admission to one of this machine's queues can wake it
        // (a machine parked on queues that never refill sleeps until the
        // run ends). A machine in no replica set can never get work, so
        // it retires for good instead.
        pool.retire_top();
        if (machine_begin[i] == machine_begin[i + 1]) continue;
        ++parks;
        if (single_queue_machines) {
          const std::uint32_t b = parked_bit_of[i];
          parked_words[b / 64] |= std::uint64_t{1} << (b % 64);
        } else {
          parked[i] = 1;
          ++parked_count;
        }
        continue;
      }

      const std::uint32_t pos =
          queue_begin[best_queue] + bitmaps.pop_min(best_queue);
      const TaskId j = queue_tasks[pos];
      const Time duration = speeds.empty() ? queue_durations[pos]
                                           : queue_durations[pos] / speeds[i];
      const auto [start, finish] = pool.occupy_top(duration);
      (void)finish;
      trace_out[emitted++] = DispatchEvent{start, j, i, duration};
      --backlog;
      --remaining;
    }
  }
  out.peak_backlog = peak_backlog;

  // Same three-pass scatter as dispatch_online: finish = start + duration
  // reproduces ReadyHeap::occupy_top's arithmetic bit-for-bit.
  for (const DispatchEvent& e : out.trace.events) {
    out.schedule.assignment.machine_of[e.task] = e.machine;
  }
  for (const DispatchEvent& e : out.trace.events) {
    out.schedule.start[e.task] = e.when;
  }
  for (const DispatchEvent& e : out.trace.events) {
    out.schedule.finish[e.task] = e.when + e.actual;
  }

  if (mx) {
    mx->counter("serve.stream.calls").add(1);
    mx->counter("serve.stream.tasks").add(n);
    mx->counter("serve.stream.wakes").add(wakes);
    mx->counter("serve.stream.parks").add(parks);
    mx->gauge("serve.stream.peak_backlog")
        .set_max(static_cast<double>(out.peak_backlog));
  }

  // Flight recorder: one bulk reserve for the whole run (3 events per
  // task -- all arrivals, then all starts, then all finishes, each in
  // task order), filled from data already in hand; the dispatch loop
  // above never touches the recorder. Column-major passes (memcpy /
  // iota / fill per column) keep the fill at memory-copy speed, which
  // is what holds ext_obs_overhead under its 5% budget. kArrive doubles
  // as admission since this service admits at arrival.
  if (obs::TimelineRecorder* const tl = obs::timeline(); tl != nullptr) {
    const auto nn = static_cast<std::size_t>(n);
    const auto block = tl->reserve(3 * nn);
    // Capacity may clamp the block; truncate segment by segment.
    const std::size_t na = std::min(nn, block.count);
    const std::size_t ns = std::min(nn, block.count - na);
    const std::size_t nf = std::min(nn, block.count - na - ns);
    std::copy_n(arrivals.data(), na, block.when);
    std::copy_n(out.schedule.start.data(), ns, block.when + na);
    std::copy_n(out.schedule.finish.data(), nf, block.when + na + ns);
    std::iota(block.task, block.task + na, TaskId{0});
    std::iota(block.task + na, block.task + na + ns, TaskId{0});
    std::iota(block.task + na + ns, block.task + na + ns + nf, TaskId{0});
    const MachineId* const machine_of =
        out.schedule.assignment.machine_of.data();
    std::fill_n(block.machine, na, obs::kTimelineNone);
    std::copy_n(machine_of, ns, block.machine + na);
    std::copy_n(machine_of, nf, block.machine + na + ns);
    std::memset(block.kind,
                static_cast<int>(obs::TimelineEventKind::kArrive), na);
    std::memset(block.kind + na,
                static_cast<int>(obs::TimelineEventKind::kStart), ns);
    std::memset(block.kind + na + ns,
                static_cast<int>(obs::TimelineEventKind::kFinish), nf);
  }
}

StreamingDispatchResult serve_stream(const Instance& instance,
                                     const Placement& placement,
                                     const Realization& actual,
                                     const std::vector<TaskId>& priority,
                                     std::span<const Time> arrivals,
                                     std::vector<Time> initial_ready,
                                     std::vector<double> speeds) {
  StreamingDispatchResult result;
  serve_stream(instance, placement, actual, priority, arrivals,
               std::span<const Time>(initial_ready),
               std::span<const double>(speeds), thread_workspace(), result);
  return result;
}

ServeStats compute_serve_stats(const Schedule& schedule,
                               std::span<const Time> arrivals) {
  const std::size_t n = schedule.num_tasks();
  if (arrivals.size() != n) {
    throw std::invalid_argument("compute_serve_stats: arrivals size mismatch");
  }
  obs::Histogram response;
  obs::Histogram queue_wait;
  obs::Histogram service;
  ServeStats stats;
  bool any = false;
  for (TaskId j = 0; j < n; ++j) {
    if (schedule.assignment.machine_of[j] == kNoMachine) continue;
    response.observe(schedule.finish[j] - arrivals[j]);
    queue_wait.observe(schedule.start[j] - arrivals[j]);
    service.observe(schedule.finish[j] - schedule.start[j]);
    if (!any) {
      stats.first_arrival = arrivals[j];
      stats.last_finish = schedule.finish[j];
      any = true;
    } else {
      stats.first_arrival = std::min(stats.first_arrival, arrivals[j]);
      stats.last_finish = std::max(stats.last_finish, schedule.finish[j]);
    }
  }
  stats.response = response.summary();
  stats.queue_wait = queue_wait.summary();
  stats.service = service.summary();
  return stats;
}

}  // namespace rdp
