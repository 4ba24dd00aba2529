// Windowed SLO evaluation for the streaming service: slices a completed
// serve run into fixed intervals, summarizes each through the sliding-
// window telemetry primitives (obs/window.hpp), and judges every window
// against operator-supplied targets -- response-time quantile ceilings
// and a backlog-watermark ceiling. The verdict mirrors burn-rate
// alerting: a run *violates its SLO* when `sustain` consecutive windows
// are each out of bounds, so a one-interval burst that drains is noted
// but does not page, while a queue that stays underwater does.
//
// `rdp_cli serve --slo p99=X,backlog=Y` feeds this and exits non-zero on
// a sustained violation (see docs/SERVING.md, "operating with SLOs").
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"

namespace rdp {

struct Schedule;

/// "Target not requested" sentinel for SloSpec fields.
inline constexpr double kNoSloTarget = std::numeric_limits<double>::infinity();

/// Most windows one evaluation may cut a run into: 2^22 SloWindows are
/// ~740 MB. evaluate_slo rejects a geometry past it before allocating.
inline constexpr std::size_t kMaxSloWindows = std::size_t{1} << 22;

/// Operator targets. Quantile targets are ceilings on the *windowed*
/// response time (finish - arrival); an infinite target means "not
/// requested". `backlog` caps the per-window watermark of admitted-but-
/// unstarted tasks. Window geometry: each evaluation window spans
/// `window_seconds` of simulated time, and `sustain` consecutive
/// violating windows constitute a sustained violation.
struct SloSpec {
  double p50 = kNoSloTarget;
  double p90 = kNoSloTarget;
  double p99 = kNoSloTarget;
  double backlog = kNoSloTarget;
  double window_seconds = 1.0;
  std::size_t sustain = 3;

  /// True when at least one target was actually set.
  [[nodiscard]] bool any() const noexcept;
};

/// Parses the `--slo` argument: comma-separated `key=value` pairs among
/// p50/p90/p99/backlog (targets; simulated seconds / tasks) and
/// window/sustain (geometry). Examples: "p99=4.5,backlog=200",
/// "p90=2,window=0.5,sustain=5". Throws std::invalid_argument on
/// unknown keys, non-numeric values, non-positive geometry, or a sustain
/// above kMaxSloWindows.
[[nodiscard]] SloSpec parse_slo_spec(const std::string& text);

/// One evaluation window [t0, t1): response/queue-wait summaries over
/// the tasks that *finished* (resp. started) in the window, the backlog
/// watermark reached inside it, and the per-target verdict.
struct SloWindow {
  double t0 = 0.0;
  double t1 = 0.0;
  obs::LocalHistogram::Summary response;    ///< sliding window ending here
  obs::LocalHistogram::Summary queue_wait;  ///< this interval only
  double backlog_watermark = 0.0;
  bool violated = false;
};

struct SloReport {
  std::vector<SloWindow> windows;
  std::size_t violating_windows = 0;
  std::size_t max_consecutive_violations = 0;
  /// Fraction of windows out of bounds -- the error-budget burn rate.
  double burn_rate = 0.0;
  /// max_consecutive_violations >= spec.sustain: the page-worthy verdict.
  bool sustained_violation = false;
};

/// Evaluates `spec` over a completed streaming run. The response series
/// is judged through a sliding window of `spec.sustain - 1` intervals
/// (min 1; the ring holding them stops at the window count + 1, which
/// already spans the whole run): deep enough that a straggler interval
/// cannot hide inside an otherwise-quiet window, shallow enough that a single bad interval
/// smears across fewer windows than the sustained-violation streak --
/// paging therefore requires slowness in at least two distinct
/// intervals. The backlog watermark is judged per single interval. Also publishes the final
/// window's summary as `serve.window.*` gauges when a metrics registry
/// is installed, which is how the sampler JSONL picks up the SLO time
/// series. Throws std::invalid_argument when schedule/arrival sizes
/// disagree, the schedule has unassigned tasks, window_seconds is not
/// positive, or makespan / window_seconds is not finite or exceeds
/// kMaxSloWindows.
///
/// Cost: the window summaries are order-free (obs::LocalHistogram keeps
/// exact sums), so the tasks are grouped by window with two counting
/// sorts instead of being sorted by time, and the watermark comes from
/// per-window counts with each start placed among its own window's
/// arrivals. Arrivals are sorted once, and only when they come unsorted.
/// check::reference_evaluate_slo is the two-sort oracle it must match.
[[nodiscard]] SloReport evaluate_slo(const Schedule& schedule,
                                     std::span<const Time> arrivals,
                                     const SloSpec& spec);

}  // namespace rdp
