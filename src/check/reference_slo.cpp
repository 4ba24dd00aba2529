#include "check/reference_slo.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "obs/metrics.hpp"
#include "obs/window.hpp"

namespace rdp::check {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string diff_summaries(const obs::LocalHistogram::Summary& a,
                           const obs::LocalHistogram::Summary& b) {
  if (a.count != b.count) return "count";
  const struct {
    const char* name;
    double obs::LocalHistogram::Summary::*field;
  } fields[] = {{"mean", &obs::LocalHistogram::Summary::mean},
                {"stddev", &obs::LocalHistogram::Summary::stddev},
                {"min", &obs::LocalHistogram::Summary::min},
                {"max", &obs::LocalHistogram::Summary::max},
                {"sum", &obs::LocalHistogram::Summary::sum},
                {"p50", &obs::LocalHistogram::Summary::p50},
                {"p90", &obs::LocalHistogram::Summary::p90},
                {"p99", &obs::LocalHistogram::Summary::p99}};
  for (const auto& f : fields) {
    if (!same_bits(a.*f.field, b.*f.field)) return f.name;
  }
  return {};
}

}  // namespace

SloReport reference_evaluate_slo(const Schedule& schedule,
                                 std::span<const Time> arrivals,
                                 const SloSpec& spec) {
  const std::size_t n = schedule.num_tasks();
  SloReport report;
  if (n == 0) return report;
  const double horizon = schedule.makespan();
  const double width = spec.window_seconds;
  const std::size_t sustain = std::max<std::size_t>(spec.sustain, 1);
  auto num_windows = static_cast<std::size_t>(std::floor(horizon / width)) + 1;
  while (static_cast<double>(num_windows - 1) * width + width <= horizon) {
    ++num_windows;
  }
  std::vector<TaskId> by_finish(n), by_start(n);
  for (TaskId j = 0; j < n; ++j) by_finish[j] = by_start[j] = j;
  const auto by = [](const std::vector<Time>& t) {
    return [&t](TaskId a, TaskId b) { return t[a] != t[b] ? t[a] < t[b] : a < b; };
  };
  std::sort(by_finish.begin(), by_finish.end(), by(schedule.finish));
  std::sort(by_start.begin(), by_start.end(), by(schedule.start));
  std::vector<Time> arrive_sorted(arrivals.begin(), arrivals.end());
  std::sort(arrive_sorted.begin(), arrive_sorted.end());

  obs::WindowedHistogram response_window(width, std::max<std::size_t>(sustain - 1, 1));
  obs::LocalHistogram interval_wait;
  std::size_t fin_cur = 0, start_cur = 0, arr_cur = 0;
  std::int64_t backlog_now = 0;
  std::size_t consecutive = 0;
  for (std::size_t w = 0; w < num_windows; ++w) {
    SloWindow win;
    win.t0 = static_cast<double>(w) * width;
    win.t1 = win.t0 + width;
    interval_wait.reset();
    double watermark = static_cast<double>(backlog_now);
    while (fin_cur < n && schedule.finish[by_finish[fin_cur]] < win.t1) {
      const TaskId j = by_finish[fin_cur++];
      response_window.observe(schedule.finish[j], schedule.finish[j] - arrivals[j]);
    }
    while (arr_cur < n || start_cur < n) {
      const double ta = arr_cur < n ? arrive_sorted[arr_cur] : kNoSloTarget;
      const double ts =
          start_cur < n ? schedule.start[by_start[start_cur]] : kNoSloTarget;
      if (ta >= win.t1 && ts >= win.t1) break;
      if (ta <= ts) {
        ++arr_cur;
        ++backlog_now;
        watermark = std::max(watermark, static_cast<double>(backlog_now));
      } else {
        const TaskId j = by_start[start_cur++];
        interval_wait.observe(schedule.start[j] - arrivals[j]);
        --backlog_now;
      }
    }
    win.response = response_window.window_summary(win.t0 + 0.5 * width);
    win.queue_wait = interval_wait.summary();
    win.backlog_watermark = watermark;
    const bool quantile_bad =
        win.response.count > 0 &&
        ((spec.p50 != kNoSloTarget && win.response.p50 > spec.p50) ||
         (spec.p90 != kNoSloTarget && win.response.p90 > spec.p90) ||
         (spec.p99 != kNoSloTarget && win.response.p99 > spec.p99));
    const bool backlog_bad =
        spec.backlog != kNoSloTarget && win.backlog_watermark > spec.backlog;
    win.violated = quantile_bad || backlog_bad;
    if (win.violated) {
      ++report.violating_windows;
      report.max_consecutive_violations =
          std::max(report.max_consecutive_violations, ++consecutive);
    } else {
      consecutive = 0;
    }
    report.windows.push_back(win);
  }
  report.burn_rate = static_cast<double>(report.violating_windows) /
                     static_cast<double>(report.windows.size());
  report.sustained_violation = report.max_consecutive_violations >= sustain;
  return report;
}

std::string diff_slo_reports(const SloReport& a, const SloReport& b) {
  if (a.windows.size() != b.windows.size()) {
    return "window counts differ (" + std::to_string(a.windows.size()) + " vs " +
           std::to_string(b.windows.size()) + ")";
  }
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    const SloWindow& x = a.windows[w];
    const SloWindow& y = b.windows[w];
    std::string what;
    if (!same_bits(x.t0, y.t0) || !same_bits(x.t1, y.t1)) {
      what = "bounds";
    } else if (const std::string d = diff_summaries(x.response, y.response); !d.empty()) {
      what = "response " + d;
    } else if (const std::string q = diff_summaries(x.queue_wait, y.queue_wait); !q.empty()) {
      what = "queue_wait " + q;
    } else if (!same_bits(x.backlog_watermark, y.backlog_watermark)) {
      what = "backlog watermark";
    } else if (x.violated != y.violated) {
      what = "verdict";
    }
    if (!what.empty()) return "window " + std::to_string(w) + ": " + what + " differs";
  }
  if (a.violating_windows != b.violating_windows ||
      a.max_consecutive_violations != b.max_consecutive_violations ||
      !same_bits(a.burn_rate, b.burn_rate) || a.sustained_violation != b.sustained_violation) {
    return "report totals differ";
  }
  return {};
}

}  // namespace rdp::check
