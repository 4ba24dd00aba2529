#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/order.hpp"
#include "core/schedule.hpp"
#include "obs/hooks.hpp"
#include "obs/window.hpp"

namespace rdp {

namespace {

double parse_slo_number(const std::string& key, const std::string& text) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("--slo: bad value for '" + key + "': " + text);
  }
  if (consumed != text.size() || !std::isfinite(value)) {
    throw std::invalid_argument("--slo: bad value for '" + key + "': " + text);
  }
  return value;
}

}  // namespace

bool SloSpec::any() const noexcept {
  return p50 != kNoSloTarget || p90 != kNoSloTarget || p99 != kNoSloTarget ||
         backlog != kNoSloTarget;
}

SloSpec parse_slo_spec(const std::string& text) {
  SloSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      if (comma == text.size()) break;
      throw std::invalid_argument("--slo: empty clause in '" + text + "'");
    }
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("--slo: expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "p50") {
      spec.p50 = parse_slo_number(key, value);
    } else if (key == "p90") {
      spec.p90 = parse_slo_number(key, value);
    } else if (key == "p99") {
      spec.p99 = parse_slo_number(key, value);
    } else if (key == "backlog") {
      spec.backlog = parse_slo_number(key, value);
    } else if (key == "window") {
      spec.window_seconds = parse_slo_number(key, value);
      if (spec.window_seconds <= 0.0) {
        throw std::invalid_argument("--slo: window must be positive");
      }
    } else if (key == "sustain") {
      const double v = parse_slo_number(key, value);
      if (v < 1.0 || v != std::floor(v)) {
        throw std::invalid_argument("--slo: sustain must be a positive integer");
      }
      // A streak longer than the window cap can never happen, and the
      // bound keeps the size_t cast below defined.
      if (v > static_cast<double>(kMaxSloWindows)) {
        throw std::invalid_argument("--slo: sustain=" + value + " exceeds " +
                                    std::to_string(kMaxSloWindows) +
                                    ", the most windows one evaluation may have");
      }
      spec.sustain = static_cast<std::size_t>(v);
    } else {
      throw std::invalid_argument("--slo: unknown key '" + key + "'");
    }
    if (comma == text.size()) break;
  }
  if (!spec.any()) {
    throw std::invalid_argument(
        "--slo: no target set (use p50=/p90=/p99=/backlog=)");
  }
  return spec;
}

SloReport evaluate_slo(const Schedule& schedule, std::span<const Time> arrivals,
                       const SloSpec& spec) {
  const std::size_t n = schedule.num_tasks();
  if (arrivals.size() != n) {
    throw std::invalid_argument("evaluate_slo: arrivals/schedule size mismatch");
  }
  SloReport report;
  if (n == 0) return report;
  for (TaskId j = 0; j < n; ++j) {
    if (schedule.assignment.machine_of[j] == kNoMachine) {
      throw std::invalid_argument("evaluate_slo: schedule has unassigned tasks");
    }
  }

  const double horizon = schedule.makespan();
  const double width = spec.window_seconds;
  const std::size_t sustain = std::max<std::size_t>(spec.sustain, 1);
  // Bound the window count before anything is allocated: a tiny width
  // would overflow the size_t cast below (undefined) or ask for more
  // SloWindows than memory holds.
  const double windows_needed = horizon / width;
  if (!(width > 0.0) || !(windows_needed <= static_cast<double>(kMaxSloWindows))) {
    std::ostringstream what;
    what << "evaluate_slo: window=" << width << " cuts a horizon of " << horizon
         << " s into " << windows_needed << " windows; it must be positive and give at most "
         << kMaxSloWindows;
    throw std::invalid_argument(what.str());
  }
  // horizon / width can round just below an integer whose window ends
  // exactly at the horizon (626.9999999999999 / 0.3 is
  // 2089.9999999999995, and 2089 * 0.3 + 0.3 == 626.9999999999999).
  // Grow until the last window's t1 lies strictly past the horizon, so
  // the task that finishes at the makespan is always counted.
  auto num_windows = static_cast<std::size_t>(std::floor(windows_needed)) + 1;
  while (static_cast<double>(num_windows - 1) * width + width <= horizon) {
    ++num_windows;
  }

  // Tasks sorted by finish feed the response series, by start the
  // queue-wait series; a merged +1/-1 sweep over (arrival, start) events
  // tracks the admitted-but-unstarted backlog. All three cursors advance
  // together, one interval at a time. The two orders share one scratch
  // buffer, freed before the window loop.
  std::vector<TaskId> by_finish, by_start;
  {
    std::vector<std::pair<Time, TaskId>> scratch;
    by_finish = order_by_time(schedule.finish, SortDirection::kAscending, &scratch);
    by_start = order_by_time(schedule.start, SortDirection::kAscending, &scratch);
  }
  // Generated streams arrive non-decreasing already; only an unsorted
  // trace pays for a sorted copy.
  std::vector<Time> arrive_copy;
  std::span<const Time> arrive_sorted = arrivals;
  if (!std::is_sorted(arrivals.begin(), arrivals.end())) {
    arrive_copy.assign(arrivals.begin(), arrivals.end());
    std::sort(arrive_copy.begin(), arrive_copy.end());
    arrive_sorted = arrive_copy;
  }

  // The rolling response window is sustain-1 intervals deep (min 1): a
  // single bad interval then pollutes at most sustain-1 consecutive
  // window quantiles, which stays below the sustained-violation streak,
  // so paging requires slow responses in at least two distinct
  // intervals. A depth of `sustain` would make any one-interval tail
  // breach trip the verdict by construction. Past num_windows + 1 the
  // ring never evicts, so deeper rings hold the same samples: clamping
  // there keeps every result and bounds the up-front allocation.
  const std::size_t depth =
      std::min(std::max<std::size_t>(sustain - 1, 1), num_windows + 1);
  obs::WindowedHistogram response_window(width, depth);
  obs::LocalHistogram interval_wait;

  std::size_t fin_cur = 0, start_cur = 0, arr_cur = 0;
  std::int64_t backlog_now = 0;
  std::size_t consecutive = 0;
  report.windows.reserve(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    SloWindow win;
    win.t0 = static_cast<double>(w) * width;
    win.t1 = win.t0 + width;
    // Half-open [t0, t1); the final window absorbs events at exactly the
    // horizon (num_windows is grown until its t1 exceeds the makespan).
    interval_wait.reset();
    double watermark = static_cast<double>(backlog_now);
    while (fin_cur < n && schedule.finish[by_finish[fin_cur]] < win.t1) {
      const TaskId j = by_finish[fin_cur++];
      response_window.observe(schedule.finish[j],
                              schedule.finish[j] - arrivals[j]);
    }
    // Backlog sweep: arrivals enqueue, starts dequeue; equal timestamps
    // process the arrival first so an arrive-and-start-instantly task
    // still registers as having been queued.
    while (arr_cur < n || start_cur < n) {
      const double ta =
          arr_cur < n ? arrive_sorted[arr_cur] : kNoSloTarget;
      const double ts = start_cur < n
                            ? schedule.start[by_start[start_cur]]
                            : kNoSloTarget;
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
    // Query at the interval midpoint: t0/width can round a hair below w
    // and land the lookup in the previous interval.
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
      ++consecutive;
      report.max_consecutive_violations =
          std::max(report.max_consecutive_violations, consecutive);
    } else {
      consecutive = 0;
    }
    report.windows.push_back(win);
  }
  report.burn_rate = report.windows.empty()
                         ? 0.0
                         : static_cast<double>(report.violating_windows) /
                               static_cast<double>(report.windows.size());
  report.sustained_violation = report.max_consecutive_violations >= sustain;

  // Surface the final window for the live sampler: `serve.window.*`
  // gauges show up in the JSONL time series alongside adapt.alpha_hat.
  if (obs::MetricsRegistry* mx = obs::metrics(); mx && !report.windows.empty()) {
    const SloWindow& last = report.windows.back();
    mx->gauge("serve.window.response_p50").set(last.response.p50);
    mx->gauge("serve.window.response_p90").set(last.response.p90);
    mx->gauge("serve.window.response_p99").set(last.response.p99);
    mx->gauge("serve.window.queue_wait_p99").set(last.queue_wait.p99);
    mx->gauge("serve.window.backlog_watermark").set(last.backlog_watermark);
    mx->gauge("serve.window.burn_rate").set(report.burn_rate);
  }
  return report;
}

}  // namespace rdp
