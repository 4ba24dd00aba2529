#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

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

/// The sweep's windows [t0, t1), t1 = w * width + width computed as the
/// sweep computes it, and the rule that hands each event to a window.
struct WindowGrid {
  double width;
  double inverse_width;
  std::size_t count;

  [[nodiscard]] double t1(std::size_t w) const noexcept {
    return static_cast<double>(w) * width + width;
  }

  /// The window whose step sweeps an event at time t: the first w with
  /// t < t1(w), or `count` when t lies at or past the last t1 (or is
  /// NaN), where no step reaches it. t * inverse_width is a guess within
  /// a window or so of the answer; the two walks settle it on the t1
  /// values themselves, so boundary cases such as 626.9999999999999 at
  /// width 0.3 land where the sweep's `< t1` test puts them.
  [[nodiscard]] std::size_t window_of(double t) const noexcept {
    if (!(t >= width)) return std::isnan(t) ? count : 0;  // before t1(0)
    const double guess = t * inverse_width;
    std::size_t w =
        guess < static_cast<double>(count) ? static_cast<std::size_t>(guess) : count;
    while (w > 0 && t < t1(w - 1)) --w;
    while (w < count && t >= t1(w)) ++w;
    return w;
  }
};

/// Task ids grouped by sweep window, of their finish and of their start
/// (one counting sort each, ids ascending within a window): window w's
/// ids are by_finish[finish_first[w] .. finish_first[w + 1]), likewise
/// for starts, for w in [0, count]; window `count` holds the times no
/// step sweeps.
struct WindowGroups {
  std::vector<TaskId> by_finish, by_start;
  std::vector<std::size_t> finish_first, start_first;
};

WindowGroups group_by_window(const Schedule& schedule, const WindowGrid& grid) {
  const std::size_t n = schedule.num_tasks();
  WindowGroups g;
  // Counts land two slots up; the scatter then advances slot w + 1 as
  // window w's cursor, which leaves slot w + 1 at w's end and slot w at
  // its start.
  g.finish_first.assign(grid.count + 3, 0);
  g.start_first.assign(grid.count + 3, 0);
  std::vector<std::uint32_t> finish_window(n), start_window(n);
  for (std::size_t j = 0; j < n; ++j) {
    finish_window[j] = static_cast<std::uint32_t>(grid.window_of(schedule.finish[j]));
    start_window[j] = static_cast<std::uint32_t>(grid.window_of(schedule.start[j]));
    ++g.finish_first[finish_window[j] + 2];
    ++g.start_first[start_window[j] + 2];
  }
  for (std::size_t w = 1; w < g.finish_first.size(); ++w) {
    g.finish_first[w] += g.finish_first[w - 1];
    g.start_first[w] += g.start_first[w - 1];
  }
  g.by_finish.resize(n);
  g.by_start.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    g.by_finish[g.finish_first[finish_window[j] + 1]++] = static_cast<TaskId>(j);
    g.by_start[g.start_first[start_window[j] + 1]++] = static_cast<TaskId>(j);
  }
  return g;
}

/// How many of the ascending `times` are <= t: a binary search whose
/// steps select rather than branch, so a start's place costs the same
/// wherever it falls.
std::size_t count_at_or_before(std::span<const Time> times, double t) noexcept {
  if (times.empty()) return 0;
  const Time* base = times.data();
  std::size_t len = times.size();
  while (len > 1) {
    const std::size_t half = len / 2;
    base += base[half - 1] <= t ? half : 0;
    len -= half;
  }
  return static_cast<std::size_t>(base - times.data()) + (*base <= t ? 1U : 0U);
}

/// One window's ascending arrivals and where a time falls among them.
/// The window is cut into as many equal cells as it has arrivals, by a
/// formula monotone in time, so the arrivals of earlier cells are at or
/// before any time in a cell and those of later cells after it: a
/// search runs inside one cell, about one arrival on average. The cell
/// index is built on the first search that needs it.
class WindowArrivals {
 public:
  void reset(std::span<const Time> arrivals, double t0, double width) {
    arrivals_ = arrivals;
    t0_ = t0;
    cells_per_second_ = static_cast<double>(arrivals.size()) / width;
    cell_first_.clear();
  }

  [[nodiscard]] std::size_t size() const noexcept { return arrivals_.size(); }

  /// How many arrivals are <= t, given that the first `known` are.
  [[nodiscard]] std::size_t rank(double t, std::size_t known) {
    if (known == arrivals_.size() || arrivals_[known] > t) return known;
    if (cell_first_.empty()) {
      // cell g's arrivals are [cell_first_[g], cell_first_[g + 1])
      cell_first_.assign(arrivals_.size() + 1, 0);
      for (const double a : arrivals_) ++cell_first_[cell_of(a) + 1];
      for (std::size_t g = 1; g < cell_first_.size(); ++g) {
        cell_first_[g] += cell_first_[g - 1];
      }
    }
    const std::size_t c = cell_of(t);
    const std::size_t below = std::max(known, cell_first_[c]);
    return below + count_at_or_before(arrivals_.subspan(below, cell_first_[c + 1] - below), t);
  }

 private:
  [[nodiscard]] std::size_t cell_of(double t) const noexcept {
    const double c = (t - t0_) * cells_per_second_;
    const auto last = static_cast<double>(arrivals_.size() - 1);
    return c > 0.0 ? static_cast<std::size_t>(std::min(c, last)) : 0;
  }

  std::span<const Time> arrivals_;
  double t0_ = 0.0;
  double cells_per_second_ = 0.0;
  std::vector<std::size_t> cell_first_;
};

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

  // The sweep takes every event with time < t1 at window w's step. Its
  // two series are order-free sums (obs::LocalHistogram), so each step
  // needs only the set of tasks it takes: tasks grouped by finish window
  // feed the response ring, by start window the queue-wait series.
  const WindowGrid grid{width, 1.0 / width, num_windows};
  const WindowGroups groups = group_by_window(schedule, grid);
  // Generated streams arrive non-decreasing already; only an unsorted
  // trace pays for a sorted copy.
  std::vector<Time> arrive_copy;
  std::span<const Time> arrive_sorted = arrivals;
  if (!std::is_sorted(arrivals.begin(), arrivals.end())) {
    arrive_copy.assign(arrivals.begin(), arrivals.end());
    std::sort(arrive_copy.begin(), arrive_copy.end());
    arrive_sorted = arrive_copy;
  }
  // Backlog: arrivals enqueue, starts dequeue, and at equal times the
  // arrival goes first, so an arrive-and-start-instantly task still
  // registers as queued. The backlog right after sorted arrival k is
  // k + 1 minus the starts before a_k, and the watermark only rises at
  // arrivals. Starts of earlier windows all precede window w's
  // arrivals and starts of later windows follow them, so each start of
  // window w is placed among w's own arrivals: ranked[r] counts the
  // starts with exactly r of them at or before it.
  std::vector<std::uint32_t> ranked;
  WindowArrivals window_arrivals;
  const bool arrivals_in_id_order = arrivals.data() == arrive_sorted.data();

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

  std::size_t arrived = 0;  // arrivals swept before this window
  std::size_t started = 0;  // starts swept before this window
  std::size_t consecutive = 0;
  report.windows.reserve(num_windows);
  for (std::size_t w = 0; w < num_windows; ++w) {
    SloWindow win;
    win.t0 = static_cast<double>(w) * width;
    win.t1 = win.t0 + width;
    // Half-open [t0, t1); the final window absorbs events at exactly the
    // horizon (num_windows is grown until its t1 exceeds the makespan).
    for (std::size_t i = groups.finish_first[w]; i < groups.finish_first[w + 1]; ++i) {
      const TaskId j = groups.by_finish[i];
      response_window.observe(schedule.finish[j], schedule.finish[j] - arrivals[j]);
    }
    std::size_t arrive_end = arrived;
    while (arrive_end < n && arrive_sorted[arrive_end] < win.t1) ++arrive_end;
    window_arrivals.reset(arrive_sorted.subspan(arrived, arrive_end - arrived), win.t0,
                          width);
    ranked.assign(window_arrivals.size() + 1, 0U);
    interval_wait.reset();
    for (std::size_t i = groups.start_first[w]; i < groups.start_first[w + 1]; ++i) {
      const TaskId j = groups.by_start[i];
      const double s = schedule.start[j];
      interval_wait.observe(s - arrivals[j]);
      // With arrivals in id order, a task that started at or after its
      // own arrival has arrivals 0..j at or before it.
      const std::size_t known =
          arrivals_in_id_order && arrivals[j] <= s && j >= arrived ? j + 1 - arrived : 0;
      ++ranked[window_arrivals.rank(s, known)];
    }
    auto swept_starts = static_cast<std::int64_t>(started);
    std::int64_t peak = static_cast<std::int64_t>(arrived) - swept_starts;
    for (std::size_t k = 0; k < window_arrivals.size(); ++k) {
      swept_starts += ranked[k];
      peak = std::max(peak, static_cast<std::int64_t>(arrived + k + 1) - swept_starts);
    }
    const double watermark = static_cast<double>(peak);
    arrived = arrive_end;
    started += groups.start_first[w + 1] - groups.start_first[w];
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
