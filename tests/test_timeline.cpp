// Tests for the task-lifecycle flight recorder (obs/timeline.hpp) and
// what an offline dispatch records into it, the sliding-window telemetry
// primitives (obs/window.hpp), and the windowed SLO engine
// (serve/slo.hpp). The windowed-quantile suite checks the headline
// property against an exact order-statistic oracle: after the ring
// rotates past a load change, the window summary reflects only the new
// regime -- a cumulative histogram cannot forget.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/reference_slo.hpp"
#include "core/instance.hpp"
#include "core/order.hpp"
#include "core/placement.hpp"
#include "core/realization.hpp"
#include "core/schedule.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/window.hpp"
#include "serve/slo.hpp"
#include "sim/online_dispatcher.hpp"

namespace rdp {
namespace {

using obs::TimelineEvent;
using obs::TimelineEventKind;
using obs::TimelineRecorder;

// --- TimelineRecorder ------------------------------------------------------

TEST(Timeline, KindNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(TimelineEventKind::kFailure); ++k) {
    const auto kind = static_cast<TimelineEventKind>(k);
    EXPECT_EQ(obs::timeline_kind_from_name(obs::to_string(kind)), kind);
  }
  EXPECT_THROW((void)obs::timeline_kind_from_name("bogus"), std::invalid_argument);
}

TEST(Timeline, RecordStoresColumnsInOrder) {
  TimelineRecorder recorder(8);
  recorder.record(1.0, TimelineEventKind::kArrive, 7);
  recorder.record(2.5, TimelineEventKind::kStart, 7, 3);
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const TimelineEvent first = recorder.event(0);
  EXPECT_DOUBLE_EQ(first.when, 1.0);
  EXPECT_EQ(first.task, 7u);
  EXPECT_EQ(first.machine, obs::kTimelineNone);
  EXPECT_EQ(first.kind, TimelineEventKind::kArrive);
  const TimelineEvent second = recorder.event(1);
  EXPECT_EQ(second.machine, 3u);
  EXPECT_EQ(second.kind, TimelineEventKind::kStart);
}

TEST(Timeline, ReserveClampsAtCapacityAndCountsDrops) {
  obs::MetricsRegistry registry;
  obs::ObservabilityScope scope(&registry, nullptr);
  TimelineRecorder recorder(10);
  const TimelineRecorder::Block a = recorder.reserve(6);
  ASSERT_EQ(a.count, 6u);
  for (std::size_t i = 0; i < a.count; ++i) {
    a.when[i] = static_cast<double>(i);
    a.task[i] = static_cast<std::uint32_t>(i);
    a.machine[i] = 0;
    a.kind[i] = static_cast<std::uint8_t>(TimelineEventKind::kStart);
  }
  // Straddles the boundary: 4 slots granted, 3 counted as dropped.
  const TimelineRecorder::Block b = recorder.reserve(7);
  EXPECT_EQ(b.count, 4u);
  // Entirely past capacity: no slots, null pointers, drops only.
  const TimelineRecorder::Block c = recorder.reserve(5);
  EXPECT_EQ(c.count, 0u);
  EXPECT_EQ(c.when, nullptr);
  recorder.record(99.0, TimelineEventKind::kFailure);  // also dropped

  EXPECT_EQ(recorder.size(), 10u);
  EXPECT_EQ(recorder.dropped(), 9u);
  EXPECT_EQ(registry.counter("timeline.events_dropped").value(), 9u);

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.capacity(), 10u);
}

TEST(Timeline, ConcurrentReservesNeverOverlapOrOverflow) {
  TimelineRecorder recorder(1000);
  constexpr int kThreads = 4;
  constexpr int kClaims = 100;  // 4 * 100 * 3 = 1200 slots vs 1000 capacity
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kClaims; ++i) {
        const TimelineRecorder::Block block = recorder.reserve(3);
        for (std::size_t s = 0; s < block.count; ++s) {
          block.when[s] = 0.0;
          block.task[s] = static_cast<std::uint32_t>(t);
          block.machine[s] = obs::kTimelineNone;
          block.kind[s] = static_cast<std::uint8_t>(TimelineEventKind::kArrive);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(recorder.size(), 1000u);
  EXPECT_EQ(recorder.dropped(), 200u);
  // Every stored slot was filled by exactly one thread.
  std::size_t per_thread[kThreads] = {};
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const std::uint32_t owner = recorder.event(i).task;
    ASSERT_LT(owner, static_cast<std::uint32_t>(kThreads));
    ++per_thread[owner];
  }
  std::size_t total = 0;
  for (std::size_t c : per_thread) total += c;
  EXPECT_EQ(total, 1000u);
}

TEST(Timeline, SaveLoadRoundTripsEventsAndMeta) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rdp_test_timeline.jsonl";
  fs::remove(path);

  TimelineRecorder recorder(3);
  recorder.record(0.5, TimelineEventKind::kArrive, 4);
  recorder.record(1.25, TimelineEventKind::kStart, 4, 2);
  recorder.record(3.75, TimelineEventKind::kFailure, obs::kTimelineNone, 2);
  recorder.record(4.0, TimelineEventKind::kFinish, 4, 2);  // dropped
  recorder.save(path.string());

  obs::TimelineMeta meta;
  const std::vector<TimelineEvent> events = obs::load_timeline(path.string(), &meta);
  EXPECT_EQ(meta.events, 3u);
  EXPECT_EQ(meta.dropped, 1u);
  EXPECT_EQ(meta.capacity, 3u);
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TimelineEvent expected = recorder.event(i);
    EXPECT_DOUBLE_EQ(events[i].when, expected.when) << "event " << i;
    EXPECT_EQ(events[i].task, expected.task) << "event " << i;
    EXPECT_EQ(events[i].machine, expected.machine) << "event " << i;
    EXPECT_EQ(events[i].kind, expected.kind) << "event " << i;
  }
  fs::remove(path);
}

TEST(Timeline, LoadRejectsMissingHeader) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rdp_test_timeline_bad.jsonl";
  {
    std::ofstream out(path);
    out << "{\"t\":1.0,\"kind\":\"start\",\"task\":0,\"machine\":0}\n";
  }
  EXPECT_THROW((void)obs::load_timeline(path.string()), std::runtime_error);
  fs::remove(path);
}

TEST(Timeline, ScopeInstallsAndRestores) {
  EXPECT_EQ(obs::timeline(), nullptr);
  TimelineRecorder recorder(4);
  {
    obs::TimelineScope scope(&recorder);
    EXPECT_EQ(obs::timeline(), &recorder);
    {
      obs::TimelineScope mask(nullptr);  // adaptive serve masks sub-runs
      EXPECT_EQ(obs::timeline(), nullptr);
    }
    EXPECT_EQ(obs::timeline(), &recorder);
  }
  EXPECT_EQ(obs::timeline(), nullptr);
}

// An offline run has no arrival process: dispatch_online records exactly
// 2n events -- n kStart, then n kFinish, each in dispatch order -- and no
// kArrive, although it runs the streaming loop in drain mode.
TEST(Timeline, OfflineDispatchRecordsStartsAndFinishesOnly) {
  const Instance inst = Instance::from_estimates({5.0, 4.0, 3.0, 2.0, 1.0, 1.0}, 3, 1.5);
  const Placement p = Placement::everywhere(inst.num_tasks(), 3);
  const Realization r = exact_realization(inst);
  const std::vector<TaskId> priority = {0, 1, 2, 3, 4, 5};
  TimelineRecorder recorder(64);
  DispatchResult run;
  {
    obs::TimelineScope scope(&recorder);
    run = dispatch_online(inst, p, r, priority);
  }
  const std::size_t n = inst.num_tasks();
  ASSERT_EQ(recorder.size(), 2 * n);
  for (std::size_t k = 0; k < n; ++k) {
    const DispatchEvent& e = run.trace.events[k];
    const TimelineEvent start = recorder.event(k);
    EXPECT_EQ(start.kind, TimelineEventKind::kStart);
    EXPECT_EQ(start.task, e.task);
    EXPECT_EQ(start.machine, e.machine);
    EXPECT_EQ(start.when, e.when);
    const TimelineEvent finish = recorder.event(n + k);
    EXPECT_EQ(finish.kind, TimelineEventKind::kFinish);
    EXPECT_EQ(finish.task, e.task);
    EXPECT_EQ(finish.when, e.when + e.actual);
  }
}

// --- WindowedHistogram -----------------------------------------------------

double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  return xs[rank - 1];
}

// Documented histogram bound: 1/(2*kSubBuckets) relative error.
double quantile_tolerance(double exact) {
  return std::abs(exact) / (2.0 * obs::LocalHistogram::kSubBuckets) + 1e-12;
}

TEST(WindowedHistogram, RejectsBadGeometry) {
  EXPECT_THROW(obs::WindowedHistogram(0.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::WindowedHistogram(-1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::WindowedHistogram(1.0, 0), std::invalid_argument);
}

TEST(WindowedHistogram, RotationForgetsOldRegime) {
  // Step change at t=40: latency jumps from ~1 to ~10. Once the 4x10s
  // ring has rotated fully past the step, the window quantiles must
  // match an exact oracle fed only post-step samples.
  obs::WindowedHistogram window(10.0, 4);
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> low(0.5, 1.5);
  std::uniform_real_distribution<double> high(8.0, 12.0);
  for (int i = 0; i < 4000; ++i) {
    window.observe(40.0 * i / 4000.0, low(rng));
  }
  std::vector<double> post;
  for (int i = 0; i < 4000; ++i) {
    const double t = 40.0 + 40.0 * i / 4000.0;
    const double v = high(rng);
    window.observe(t, v);
    if (t >= 50.0) post.push_back(v);  // the live window at t=89.99
  }
  const obs::Histogram::Summary s = window.window_summary(89.99);
  EXPECT_EQ(s.count, post.size());
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact = exact_quantile(post, q);
    const double reported = q == 0.50 ? s.p50 : (q == 0.90 ? s.p90 : s.p99);
    EXPECT_NEAR(reported, exact, quantile_tolerance(exact)) << "q=" << q;
  }
  // No sample below 8 survives in the rolled-up window.
  EXPECT_GE(s.min, 8.0);
}

TEST(WindowedHistogram, WindowSummaryMatchesExactOracleUnderRotation) {
  // Continuous lognormal stream, window queried mid-run: the rollup must
  // agree with the exact order statistics of precisely the samples whose
  // intervals are live at the query time. The window merges *whole*
  // intervals -- samples later in the query's own interval than the
  // query instant are still included.
  const double interval = 1.0;
  const std::size_t slots = 5;
  obs::WindowedHistogram window(interval, slots);
  std::mt19937_64 rng(9);
  std::lognormal_distribution<double> dist(0.0, 1.0);
  std::vector<double> times;
  std::vector<double> values;
  for (int i = 0; i < 20000; ++i) {
    const double t = 20.0 * i / 20000.0;
    const double v = dist(rng);
    window.observe(t, v);
    times.push_back(t);
    values.push_back(v);
  }
  const double query = 19.5;
  const obs::Histogram::Summary s = window.window_summary(query);
  std::vector<double> live;
  const auto idx = static_cast<long long>(std::floor(query / interval));
  const long long lo_idx = idx - static_cast<long long>(slots) + 1;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto slot = static_cast<long long>(std::floor(times[i] / interval));
    if (slot >= lo_idx && slot <= idx) live.push_back(values[i]);
  }
  ASSERT_EQ(s.count, live.size());
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact = exact_quantile(live, q);
    const double reported = q == 0.50 ? s.p50 : (q == 0.90 ? s.p90 : s.p99);
    EXPECT_NEAR(reported, exact, quantile_tolerance(exact)) << "q=" << q;
  }
}

TEST(WindowedHistogram, IntervalSummaryIsolatesOneInterval) {
  obs::WindowedHistogram window(2.0, 3);
  window.observe(0.5, 1.0);
  window.observe(2.5, 10.0);
  window.observe(3.9, 20.0);
  const obs::Histogram::Summary first = window.interval_summary(1.0);
  EXPECT_EQ(first.count, 1u);
  EXPECT_DOUBLE_EQ(first.max, 1.0);
  const obs::Histogram::Summary second = window.interval_summary(2.0);
  EXPECT_EQ(second.count, 2u);
  EXPECT_DOUBLE_EQ(second.min, 10.0);
  EXPECT_DOUBLE_EQ(second.max, 20.0);
  // An interval the window has rotated past (or never reached) is empty.
  EXPECT_EQ(window.interval_summary(100.0).count, 0u);
}

TEST(WindowedHistogram, LateSamplesBehindTrailingEdgeAreCountedNotStored) {
  obs::WindowedHistogram window(1.0, 2);
  window.observe(10.0, 5.0);   // newest interval: 10
  window.observe(9.5, 4.0);    // still live (window is {9, 10})
  EXPECT_EQ(window.late_dropped(), 0u);
  window.observe(8.5, 3.0);    // behind the trailing edge -> dropped
  window.observe(0.0, 1.0);    // far behind -> dropped
  EXPECT_EQ(window.late_dropped(), 2u);
  const obs::Histogram::Summary s = window.window_summary(10.0);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
}

TEST(WindowedHistogram, LargeTimeJumpClearsEverything) {
  obs::WindowedHistogram window(1.0, 4);
  for (int i = 0; i < 100; ++i) window.observe(0.01 * i, 1.0);
  // Jump of a million intervals: the reset walk must be O(ring), not
  // O(gap), and the window must come back empty except the new sample.
  window.observe(1e6, 42.0);
  const obs::Histogram::Summary s = window.window_summary(1e6);
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

// --- SLO spec parsing ------------------------------------------------------

TEST(SloSpec, ParsesTargetsAndGeometry) {
  const SloSpec spec = parse_slo_spec("p99=4.5,backlog=200,window=0.5,sustain=5");
  EXPECT_DOUBLE_EQ(spec.p99, 4.5);
  EXPECT_DOUBLE_EQ(spec.backlog, 200.0);
  EXPECT_DOUBLE_EQ(spec.window_seconds, 0.5);
  EXPECT_EQ(spec.sustain, 5u);
  EXPECT_EQ(spec.p50, kNoSloTarget);
  EXPECT_EQ(spec.p90, kNoSloTarget);
  EXPECT_TRUE(spec.any());
}

TEST(SloSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_slo_spec(""), std::invalid_argument);
  EXPECT_THROW((void)parse_slo_spec("p98=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_slo_spec("p99"), std::invalid_argument);
  EXPECT_THROW((void)parse_slo_spec("p99=abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_slo_spec("p99=1,window=0"), std::invalid_argument);
  EXPECT_THROW((void)parse_slo_spec("p99=1,sustain=0"), std::invalid_argument);
  EXPECT_THROW((void)parse_slo_spec("window=2,sustain=3"), std::invalid_argument)
      << "geometry alone is not an SLO";
}

// A streak longer than kMaxSloWindows can never occur; past it the value
// is rejected by name before any size_t cast (1e30 would be undefined).
TEST(SloSpec, RejectsSustainPastTheWindowCap) {
  const std::string too_many = std::to_string(kMaxSloWindows + 1);
  for (const std::string& sustain : {std::string("1e30"), too_many}) {
    try {
      (void)parse_slo_spec("p99=1,sustain=" + sustain);
      ADD_FAILURE() << "sustain=" << sustain << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("sustain=" + sustain), std::string::npos)
          << e.what();
    }
  }
  const SloSpec at_cap = parse_slo_spec("p99=1,sustain=" + std::to_string(kMaxSloWindows));
  EXPECT_EQ(at_cap.sustain, kMaxSloWindows);
}

// --- SLO evaluation --------------------------------------------------------

// One task per second arriving on a 1s grid, each starting immediately
// and running for `service` seconds on machine 0.
Schedule uniform_schedule(std::size_t n, double service,
                          std::vector<Time>* arrivals) {
  Schedule schedule;
  schedule.assignment.machine_of.assign(n, 0);
  schedule.start.resize(n);
  schedule.finish.resize(n);
  arrivals->resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double t = static_cast<double>(j);
    (*arrivals)[j] = t;
    schedule.start[j] = t;
    schedule.finish[j] = t + service;
  }
  return schedule;
}

TEST(SloEvaluate, CleanRunHasNoViolations) {
  std::vector<Time> arrivals;
  const Schedule schedule = uniform_schedule(50, 0.5, &arrivals);
  SloSpec spec;
  spec.p99 = 1.0;
  spec.backlog = 5.0;
  const SloReport report = evaluate_slo(schedule, arrivals, spec);
  EXPECT_FALSE(report.windows.empty());
  EXPECT_EQ(report.violating_windows, 0u);
  EXPECT_EQ(report.max_consecutive_violations, 0u);
  EXPECT_DOUBLE_EQ(report.burn_rate, 0.0);
  EXPECT_FALSE(report.sustained_violation);
}

TEST(SloEvaluate, SustainedOverrunTripsTheVerdict) {
  // Every response is 2.0s against a p99 ceiling of 1.0s: every window
  // with any finished task violates, consecutively, so the sustained
  // verdict fires. (The first finish lands at t=2.0, so the leading
  // windows are empty and cannot violate a quantile target.)
  std::vector<Time> arrivals;
  const Schedule schedule = uniform_schedule(50, 2.0, &arrivals);
  SloSpec spec;
  spec.p99 = 1.0;
  spec.sustain = 3;
  const SloReport report = evaluate_slo(schedule, arrivals, spec);
  EXPECT_GE(report.violating_windows + 2, report.windows.size());
  EXPECT_GE(report.max_consecutive_violations, spec.sustain);
  EXPECT_GT(report.burn_rate, 0.9);
  EXPECT_TRUE(report.sustained_violation);
}

TEST(SloEvaluate, ShortBurstIsNotedButDoesNotPage) {
  // 30 tasks respond in 0.5s except a 2-task burst whose slow finishes
  // both land in interval 15. One bad interval smears across at most
  // sustain-1 consecutive windows (the sliding-window depth), so
  // violating_windows > 0 but the sustained verdict stays off.
  std::vector<Time> arrivals;
  Schedule schedule = uniform_schedule(30, 0.5, &arrivals);
  schedule.finish[10] = arrivals[10] + 5.0;  // finishes at t=15.0
  schedule.finish[11] = arrivals[11] + 4.2;  // finishes at t=15.2
  SloSpec spec;
  spec.p99 = 1.0;
  spec.sustain = 10;
  const SloReport report = evaluate_slo(schedule, arrivals, spec);
  EXPECT_GT(report.violating_windows, 0u);
  EXPECT_LT(report.max_consecutive_violations, spec.sustain);
  EXPECT_FALSE(report.sustained_violation);
}

TEST(SloEvaluate, BacklogWatermarkCatchesQueueGrowth) {
  // 20 tasks all arrive at t=0 but start one per second: the backlog
  // watermark in the first window is 20, decaying by one per window.
  const std::size_t n = 20;
  Schedule schedule;
  std::vector<Time> arrivals(n, 0.0);
  schedule.assignment.machine_of.assign(n, 0);
  schedule.start.resize(n);
  schedule.finish.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    schedule.start[j] = static_cast<double>(j);
    schedule.finish[j] = static_cast<double>(j) + 0.5;
  }
  SloSpec spec;
  spec.backlog = 10.0;
  spec.sustain = 2;
  const SloReport report = evaluate_slo(schedule, arrivals, spec);
  ASSERT_GT(report.windows.size(), 1u);
  EXPECT_DOUBLE_EQ(report.windows[0].backlog_watermark, 20.0);
  EXPECT_TRUE(report.windows[0].violated);
  EXPECT_TRUE(report.sustained_violation);
  // Late windows have drained below the ceiling.
  EXPECT_FALSE(report.windows.back().violated);
}

TEST(SloEvaluate, UnsortedArrivalsMatchTheSortedRelabelling) {
  // A queue that builds (one arrival per second, two seconds of service
  // on one machine), evaluated once in arrival order and once with the
  // task ids reversed, so the arrivals come in descending order. The
  // report is a function of the (arrival, start, finish) triples, not of
  // the ids, so both runs must agree window by window.
  const std::size_t n = 12;
  std::vector<Time> arrivals(n), reversed_arrivals(n);
  Schedule schedule, reversed;
  for (Schedule* s : {&schedule, &reversed}) {
    s->assignment.machine_of.assign(n, 0);
    s->start.resize(n);
    s->finish.resize(n);
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t r = n - 1 - j;
    arrivals[j] = reversed_arrivals[r] = static_cast<double>(j);
    schedule.start[j] = reversed.start[r] = 2.0 * static_cast<double>(j);
    schedule.finish[j] = reversed.finish[r] = 2.0 * static_cast<double>(j) + 2.0;
  }
  SloSpec spec;
  spec.p99 = 4.0;
  spec.backlog = 3.0;
  spec.sustain = 2;
  const SloReport a = evaluate_slo(schedule, arrivals, spec);
  const SloReport b = evaluate_slo(reversed, reversed_arrivals, spec);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].backlog_watermark, b.windows[w].backlog_watermark);
    EXPECT_EQ(a.windows[w].response.count, b.windows[w].response.count);
    EXPECT_EQ(a.windows[w].response.p99, b.windows[w].response.p99);
    EXPECT_EQ(a.windows[w].queue_wait.sum, b.windows[w].queue_wait.sum);
    EXPECT_EQ(a.windows[w].violated, b.windows[w].violated);
  }
  EXPECT_GT(a.violating_windows, 0u);
  EXPECT_EQ(a.violating_windows, b.violating_windows);
  EXPECT_EQ(a.sustained_violation, b.sustained_violation);
}

TEST(SloEvaluate, TaskFinishingAtHorizonIsAlwaysCounted) {
  // 626.9999999999999 / 0.3 rounds to 2089.9999999999995, so
  // floor(horizon / width) + 1 = 2090 windows, and the last one's
  // t1 = 2089 * 0.3 + 0.3 is exactly the horizon. The final task arrives,
  // starts and finishes at the horizon; the half-open [t0, t1) sweep
  // would drop it unless the window count grows past the boundary.
  const double horizon = 626.9999999999999;
  const double width = 0.3;
  ASSERT_EQ(std::floor(horizon / width), 2089.0);
  ASSERT_EQ(2089.0 * width + width, horizon);
  const std::size_t n = 10;
  Schedule schedule;
  schedule.assignment.machine_of.assign(n, 0);
  schedule.start.resize(n);
  schedule.finish.resize(n);
  std::vector<Time> arrivals(n);
  for (std::size_t j = 0; j + 1 < n; ++j) {
    arrivals[j] = schedule.start[j] = 60.0 * static_cast<double>(j);
    schedule.finish[j] = schedule.start[j] + 1.0;
  }
  arrivals[n - 1] = schedule.start[n - 1] = schedule.finish[n - 1] = horizon;
  ASSERT_EQ(schedule.makespan(), horizon);
  SloSpec spec;
  spec.p99 = 10.0;
  spec.window_seconds = width;
  const SloReport report = evaluate_slo(schedule, arrivals, spec);
  ASSERT_FALSE(report.windows.empty());
  EXPECT_GT(report.windows.back().t1, horizon);
  std::uint64_t started = 0;
  for (const SloWindow& w : report.windows) started += w.queue_wait.count;
  EXPECT_EQ(started, n);
  EXPECT_EQ(report.windows.back().queue_wait.count, 1u);
  EXPECT_GE(report.windows.back().response.count, 1u);
  EXPECT_DOUBLE_EQ(report.windows.back().backlog_watermark, 1.0);
}

// --- SLO oracle: the two-sort evaluation (check/reference_slo.hpp) --------

using check::reference_evaluate_slo;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_equal(const obs::Histogram::Summary& a,
                          const obs::Histogram::Summary& b, const std::string& where) {
  EXPECT_EQ(a.count, b.count) << where;
  for (const auto field : {&obs::Histogram::Summary::mean, &obs::Histogram::Summary::stddev,
                           &obs::Histogram::Summary::min, &obs::Histogram::Summary::max,
                           &obs::Histogram::Summary::sum, &obs::Histogram::Summary::p50,
                           &obs::Histogram::Summary::p90, &obs::Histogram::Summary::p99}) {
    EXPECT_EQ(bits(a.*field), bits(b.*field)) << where;
  }
}

void expect_reports_bitwise_equal(const SloReport& got, const SloReport& want,
                                  const std::string& where) {
  ASSERT_EQ(got.windows.size(), want.windows.size()) << where;
  for (std::size_t w = 0; w < want.windows.size(); ++w) {
    const SloWindow& a = got.windows[w];
    const SloWindow& b = want.windows[w];
    const std::string at = where + " window " + std::to_string(w);
    EXPECT_EQ(bits(a.t0), bits(b.t0)) << at;
    EXPECT_EQ(bits(a.t1), bits(b.t1)) << at;
    expect_bitwise_equal(a.response, b.response, at + " response");
    expect_bitwise_equal(a.queue_wait, b.queue_wait, at + " queue_wait");
    EXPECT_EQ(bits(a.backlog_watermark), bits(b.backlog_watermark)) << at;
    EXPECT_EQ(a.violated, b.violated) << at;
  }
  EXPECT_EQ(got.violating_windows, want.violating_windows) << where;
  EXPECT_EQ(got.max_consecutive_violations, want.max_consecutive_violations) << where;
  EXPECT_EQ(bits(got.burn_rate), bits(want.burn_rate)) << where;
  EXPECT_EQ(got.sustained_violation, want.sustained_violation) << where;
}

// A randomized schedule: arrival, wait and service per task, drawn so
// that zero waits and zero services occur. evaluate_slo reads only the
// times, so every task sits on machine 0. `grain` > 0 rounds every time
// onto a grid (heavy ties); `shuffle_arrivals` permutes the task ids so
// the arrivals come unsorted.
Schedule random_slo_schedule(std::mt19937_64& rng, std::size_t n, double grain,
                             bool shuffle_arrivals, std::vector<Time>* arrivals) {
  std::exponential_distribution<double> gap(1.0);
  std::exponential_distribution<double> service(0.4);
  std::bernoulli_distribution instant(0.2);
  const auto snap = [grain](double t) {
    return grain > 0.0 ? std::round(t / grain) * grain : t;
  };
  Schedule s;
  s.assignment.machine_of.assign(n, 0);
  s.start.resize(n);
  s.finish.resize(n);
  arrivals->resize(n);
  double t = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    t += gap(rng);
    (*arrivals)[j] = snap(t);
    s.start[j] = instant(rng) ? (*arrivals)[j] : snap((*arrivals)[j] + service(rng));
    s.finish[j] = instant(rng) ? s.start[j] : snap(s.start[j] + service(rng));
  }
  if (shuffle_arrivals) {
    std::vector<std::size_t> perm(n);
    for (std::size_t j = 0; j < n; ++j) perm[j] = j;
    std::shuffle(perm.begin(), perm.end(), rng);
    Schedule shuffled = s;
    std::vector<Time> moved(n);
    for (std::size_t j = 0; j < n; ++j) {
      moved[j] = (*arrivals)[perm[j]];
      shuffled.start[j] = s.start[perm[j]];
      shuffled.finish[j] = s.finish[perm[j]];
    }
    *arrivals = std::move(moved);
    return shuffled;
  }
  return s;
}

TEST(SloEvaluate, MatchesTwoSortReferenceBitwise) {
  std::mt19937_64 rng(20261017);
  const double widths[] = {0.3, 7.3, 1.0 / 3.0, 1.0, 0.25, 2.5};
  const double grains[] = {0.0, 0.0, 0.5, 0.25, 1.0 / 3.0};
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 400);
    std::vector<Time> arrivals;
    const Schedule schedule =
        random_slo_schedule(rng, n, grains[trial % 5], trial % 3 == 0, &arrivals);
    SloSpec spec;
    spec.p99 = 3.0;
    spec.p50 = 1.5;
    spec.backlog = 4.0;
    spec.window_seconds = widths[trial % 6];
    spec.sustain = 1 + static_cast<std::size_t>(trial % 4);
    expect_reports_bitwise_equal(evaluate_slo(schedule, arrivals, spec),
                                 reference_evaluate_slo(schedule, arrivals, spec),
                                 "trial " + std::to_string(trial));
  }
}

TEST(SloEvaluate, MatchesTwoSortReferenceOnDegenerateTimes) {
  SloSpec spec;
  spec.p99 = 0.5;
  spec.backlog = 2.0;
  spec.window_seconds = 0.3;
  const std::size_t n = 64;
  Schedule schedule;
  schedule.assignment.machine_of.assign(n, 0);
  std::vector<Time> arrivals(n);
  // Everything at t = 0, with -0.0 mixed in: one bucket, ties on id only.
  schedule.start.assign(n, 0.0);
  schedule.finish.assign(n, 0.0);
  for (std::size_t j = 0; j < n; j += 3) {
    arrivals[j] = -0.0;
    schedule.start[j] = -0.0;
    schedule.finish[j] = j % 2 ? -0.0 : 0.0;
  }
  expect_reports_bitwise_equal(evaluate_slo(schedule, arrivals, spec),
                               reference_evaluate_slo(schedule, arrivals, spec),
                               "all zero");
  // All-equal positive times, arrivals descending (the unsorted-trace path).
  for (std::size_t j = 0; j < n; ++j) {
    arrivals[j] = static_cast<double>(n - j) * 0.01;
    schedule.start[j] = 5.0;
    schedule.finish[j] = 5.0;
  }
  expect_reports_bitwise_equal(evaluate_slo(schedule, arrivals, spec),
                               reference_evaluate_slo(schedule, arrivals, spec),
                               "all equal");
  // Horizon on a window boundary that floor(horizon / width) misses, with
  // several tasks tied at the makespan.
  for (std::size_t j = 0; j < n; ++j) {
    arrivals[j] = 9.0 * static_cast<double>(j);
    schedule.start[j] = arrivals[j] + 0.5;
    schedule.finish[j] = j + 4 >= n ? 626.9999999999999 : schedule.start[j] + 1.0;
    if (j + 4 >= n) schedule.start[j] = 626.9999999999999;
  }
  expect_reports_bitwise_equal(evaluate_slo(schedule, arrivals, spec),
                               reference_evaluate_slo(schedule, arrivals, spec),
                               "horizon on boundary");
  for (const auto& [width, horizon] :
       {std::pair{7.3, 28243.699999999997}, std::pair{1.0 / 3.0, 83.66666666666666}}) {
    spec.window_seconds = width;
    for (std::size_t j = 0; j < n; ++j) {
      arrivals[j] = horizon * static_cast<double>(j) / static_cast<double>(n);
      schedule.start[j] = arrivals[j];
      schedule.finish[j] = j + 1 == n ? horizon : arrivals[j] + width;
    }
    const SloReport got = evaluate_slo(schedule, arrivals, spec);
    expect_reports_bitwise_equal(got, reference_evaluate_slo(schedule, arrivals, spec),
                                 "width " + std::to_string(width));
    std::uint64_t started = 0;
    for (const SloWindow& w : got.windows) started += w.queue_wait.count;
    EXPECT_EQ(started, n);
  }
}

// evaluate_slo clamps its response ring to num_windows + 1 intervals,
// past which a ring never evicts. The reference keeps the sustain - 1
// ring (4095 intervals here, ~128 MiB), and the reports must agree bit
// for bit, sustained verdict included.
TEST(SloEvaluate, HugeSustainMatchesTheUnclampedRingBitwise) {
  SloSpec spec;
  spec.p99 = 1.0;
  spec.backlog = 2.0;
  spec.sustain = 4096;
  std::vector<Time> arrivals;
  Schedule schedule = uniform_schedule(10, 0.5, &arrivals);
  schedule.finish[4] = arrivals[4] + 3.0;  // one slow task, seen by every later window
  const SloReport got = evaluate_slo(schedule, arrivals, spec);
  ASSERT_GE(got.windows.size(), 10u);
  ASSERT_LE(got.windows.size(), 12u);
  EXPECT_GT(got.violating_windows, 0u);
  expect_reports_bitwise_equal(got, reference_evaluate_slo(schedule, arrivals, spec),
                               "uniform");

  std::mt19937_64 rng(4096);
  const Schedule random = random_slo_schedule(rng, 40, 0.25, true, &arrivals);
  spec.window_seconds = random.makespan() / 9.5;  // ten windows
  expect_reports_bitwise_equal(evaluate_slo(random, arrivals, spec),
                               reference_evaluate_slo(random, arrivals, spec), "random");
}

// --- order_by_time ---------------------------------------------------------

constexpr SortDirection kDirections[] = {SortDirection::kAscending,
                                         SortDirection::kDescending};

const char* direction_name(SortDirection direction) {
  return direction == SortDirection::kAscending ? "ascending" : "descending";
}

// The comparator sort order_by_time replaces: ids stably sorted with `<`
// (resp. `>`) on their time, so ties keep ascending id.
std::vector<TaskId> stable_time_order(const std::vector<Time>& times,
                                      SortDirection direction) {
  std::vector<TaskId> ids(times.size());
  for (TaskId j = 0; j < ids.size(); ++j) ids[j] = j;
  std::stable_sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    return direction == SortDirection::kAscending ? times[a] < times[b]
                                                  : times[a] > times[b];
  });
  return ids;
}

TEST(SloOrder, MatchesStableSortOfTimeThenId) {
  std::mt19937_64 rng(99);
  std::vector<std::pair<Time, TaskId>> scratch;
  std::uniform_real_distribution<double> uniform(0.0, 1000.0);
  std::exponential_distribution<double> skewed(0.01);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng() % 3000);
    std::vector<Time> times(n);
    for (std::size_t j = 0; j < n; ++j) {
      switch (trial % 6) {
        case 0: times[j] = uniform(rng); break;
        case 1: times[j] = std::floor(uniform(rng) / 50.0);  break;  // heavy ties
        case 2: times[j] = skewed(rng); break;                       // long tail
        case 3: times[j] = rng() % 2 ? 0.0 : -0.0; break;            // signed zeros
        case 4: times[j] = uniform(rng) - 500.0; break;              // negatives
        default:  // a few clustered values and one far outlier
          times[j] = j == n / 2 ? 1e300 : 1.0 + static_cast<double>(rng() % 4) * 1e-300;
      }
    }
    for (const SortDirection direction : kDirections) {
      EXPECT_EQ(order_by_time(times, direction, &scratch),
                stable_time_order(times, direction))
          << direction_name(direction) << " trial " << trial << " n=" << n;
    }
  }
}

TEST(SloOrder, MatchesStableSortAcrossBucketSizesAndShapes) {
  // Sizes straddle the 32-pair insertion-sort threshold (one bucket of
  // 32 or 33 equal times) and reach 1e5, where integer-valued times
  // fill buckets of thousands and Pareto(1.1) times pile into the first
  // few. A subnormal range makes n / range overflow: one bucket.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<std::pair<Time, TaskId>> scratch;
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (const std::size_t n : {std::size_t{31}, std::size_t{32}, std::size_t{33},
                              std::size_t{1000}, std::size_t{100000}}) {
    for (int shape = 0; shape < 5; ++shape) {
      std::vector<Time> times(n);
      for (Time& t : times) {
        switch (shape) {
          case 0: t = 4.5; break;                                      // all equal
          case 1: t = std::floor(20.0 * unit(rng)); break;             // integers
          case 2: t = std::min(1e4, std::pow(1.0 - unit(rng), -1.0 / 1.1)); break;
          case 3: t = tiny * static_cast<double>(rng() % 5); break;    // subnormal
          default: t = 1e-300 * static_cast<double>(rng() % 1000);     // tiny range
        }
      }
      for (const SortDirection direction : kDirections) {
        EXPECT_EQ(order_by_time(times, direction, &scratch),
                  stable_time_order(times, direction))
            << direction_name(direction) << " shape " << shape << " n=" << n;
      }
    }
  }
}

TEST(SloOrder, SubnormalInfiniteAndNanTimesStayWellDefined) {
  std::vector<std::pair<Time, TaskId>> scratch;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Time> ordered = {3.0 * tiny, tiny, 0.0, -tiny, 2.0 * tiny, tiny};
  const std::vector<Time> with_inf = {5.0, inf, 1.0, -inf, 5.0, inf};
  // NaN has no place in a (t, id) order; the result must still be a
  // permutation of the ids, produced without an out-of-range bucket.
  const std::vector<Time> with_nan = {2.0, std::nan(""), 1.0, std::nan(""), 0.5};
  for (const SortDirection direction : kDirections) {
    SCOPED_TRACE(direction_name(direction));
    EXPECT_EQ(order_by_time(ordered, direction, &scratch),
              stable_time_order(ordered, direction));
    EXPECT_EQ(order_by_time(with_inf, direction, &scratch),
              stable_time_order(with_inf, direction));
    std::vector<TaskId> ids = order_by_time(with_nan, direction, &scratch);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<TaskId>{0, 1, 2, 3, 4}));
    EXPECT_TRUE(order_by_time({}, direction, &scratch).empty());
  }
}

TEST(SloEvaluate, PublishesWindowGaugesWhenRegistryInstalled) {
  std::vector<Time> arrivals;
  const Schedule schedule = uniform_schedule(20, 0.5, &arrivals);
  SloSpec spec;
  spec.p99 = 1.0;
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    (void)evaluate_slo(schedule, arrivals, spec);
  }
  EXPECT_NEAR(registry.gauge("serve.window.response_p99").value(), 0.5,
              0.5 / obs::LocalHistogram::kSubBuckets);
  EXPECT_DOUBLE_EQ(registry.gauge("serve.window.burn_rate").value(), 0.0);
}

TEST(SloEvaluate, RejectsMismatchedOrUnassignedInput) {
  std::vector<Time> arrivals;
  Schedule schedule = uniform_schedule(5, 0.5, &arrivals);
  SloSpec spec;
  spec.p99 = 1.0;
  std::vector<Time> short_arrivals(arrivals.begin(), arrivals.end() - 1);
  EXPECT_THROW((void)evaluate_slo(schedule, short_arrivals, spec),
               std::invalid_argument);
  schedule.assignment.machine_of[2] = kNoMachine;
  EXPECT_THROW((void)evaluate_slo(schedule, arrivals, spec),
               std::invalid_argument);
}

}  // namespace
}  // namespace rdp
