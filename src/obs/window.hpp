// Sliding-window distribution summaries: a ring of per-interval HDR
// histograms (obs/metrics.hpp) over a caller-supplied time axis --
// simulated seconds for the SLO engine, wall seconds for live sampling.
// Each sample lands in the histogram of its interval floor(t/interval);
// advancing time expires the oldest intervals in place (LocalHistogram::
// reset(), no allocation), and a window rollup is a LocalHistogram::merge
// of the live slots. This is what gives response-time telemetry a time
// axis: per-interval p50/p90/p99 that *forget* an old regime within
// ring-length intervals of a load change, instead of one cumulative
// histogram that averages the burst away.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"

namespace rdp::obs {

/// Single owner, no lock, like the LocalHistograms it holds: one thread
/// observes and queries it (evaluate_slo builds one per call).
class WindowedHistogram {
 public:
  /// `interval_seconds` > 0 is the bucketing grain; `num_intervals` >= 1
  /// is the ring length (the window spans num_intervals * interval
  /// seconds). Throws std::invalid_argument on bad geometry.
  WindowedHistogram(double interval_seconds, std::size_t num_intervals);

  /// Records `value` at time `t` (t >= 0). Times may arrive out of
  /// order within the window; samples older than the window's trailing
  /// edge are dropped and counted (late_dropped()). Advancing t rotates
  /// the ring, clearing every interval that fell out of the window.
  void observe(double t, double value) noexcept;

  /// Summary of the single interval containing `t`, empty if it is
  /// outside the window.
  [[nodiscard]] LocalHistogram::Summary interval_summary(double t) const noexcept;

  /// Rollup of every live interval up to and including the one holding
  /// `t` (advances the window to t first): the sliding-window summary.
  [[nodiscard]] LocalHistogram::Summary window_summary(double t) noexcept;

  [[nodiscard]] double interval_seconds() const noexcept { return interval_; }
  [[nodiscard]] std::size_t num_intervals() const noexcept { return ring_.size(); }
  /// Samples rejected for arriving behind the trailing edge.
  [[nodiscard]] std::uint64_t late_dropped() const noexcept { return late_dropped_; }

 private:
  /// Rotates so the interval index `idx` is the newest slot.
  void advance_to(std::int64_t idx) noexcept;
  /// The slot of interval `idx` <= newest_ (idx mod ring size), counted
  /// back from the newest slot: no division on the per-sample path.
  [[nodiscard]] std::size_t slot_of(std::int64_t idx) const noexcept;

  double interval_;
  std::vector<LocalHistogram> ring_;
  LocalHistogram scratch_;     ///< merge target for window_summary
  std::int64_t newest_ = -1;   ///< highest interval index seen; -1 = none
  std::size_t newest_slot_ = 0;  ///< newest_ % ring size
  std::uint64_t late_dropped_ = 0;
};

}  // namespace rdp::obs
