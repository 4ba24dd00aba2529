// Noise-aware benchmark comparison: diffs a fresh BenchRecord against a
// committed baseline and decides, per metric, whether the change is a
// regression, an improvement, or noise.
//
// The threshold for each metric is the widest of three slacks --
//   rel_tolerance * |baseline|     (relative, per noise class)
//   mad_multiplier * baseline.mad  (the baseline's own measured jitter)
//   metric.abs_slack               (absolute floor for near-zero baselines)
// -- and only a change *in the worse direction* beyond the threshold
// regresses. Metrics with direction "none" are reported but never gate.
// Schema-level problems (params drift, metrics that vanished) are
// regressions too: a gate that silently stops measuring is worse than a
// slow gate.
#pragma once

#include <string>
#include <vector>

#include "perf/bench_record.hpp"

namespace rdp::perf {

struct CompareOptions {
  double timing_rel_tolerance = 0.20;  ///< "timing" metrics: 20% relative
  double exact_rel_tolerance = 1e-9;   ///< "exact" metrics: bit-for-bit-ish
  double mad_multiplier = 4.0;         ///< slack per unit of baseline MAD
  /// Treat a params-hash mismatch as a warning instead of a regression
  /// (for comparing across intentional parameter changes).
  bool ignore_params = false;
};

struct MetricVerdict {
  std::string name;
  double baseline = 0;
  double current = 0;
  double delta = 0;        ///< current - baseline
  double threshold = 0;    ///< slack granted before calling it a change
  Direction direction = Direction::kLower;
  Noise noise = Noise::kTiming;  ///< from the baseline metric
  /// "ok" | "improved" | "regressed" | "info" | "missing" | "new"
  std::string status;

  [[nodiscard]] bool regressed() const { return status == "regressed" || status == "missing"; }
};

struct CompareResult {
  std::string bench;            ///< benchmark name
  std::string baseline_source;  ///< where the baseline came from
  std::string current_source;
  bool params_match = true;
  bool host_match = true;       ///< informational: cross-host diffs are noisy
  std::vector<MetricVerdict> metrics;
  std::vector<std::string> notes;  ///< human-readable warnings

  /// True when any gated metric regressed/vanished, or params drifted
  /// (unless ignore_params).
  [[nodiscard]] bool regressed() const;

  /// True when the runs are not comparable as recorded: params drifted
  /// (unless ignore_params) or a gated metric vanished. A gate that
  /// silently stops measuring fails even under `--warn-only`.
  [[nodiscard]] bool schema_broken() const;

  /// True when an "exact"-noise-class metric (counters, iteration counts,
  /// bit-mismatch totals -- deterministic by contract) regressed, or the
  /// schema broke. These stay enforced even when timing
  /// regressions are downgraded to warnings on shared runners
  /// (`perf gate --warn-only --enforce-exact`).
  [[nodiscard]] bool exact_regressed() const;

  /// Fixed-width human diff table plus notes.
  [[nodiscard]] std::string render_table() const;

  /// Machine verdict: {bench, regressed, params_match, metrics: [...]}.
  [[nodiscard]] JsonValue to_json() const;
};

/// Compares `current` against `baseline` metric-by-metric.
[[nodiscard]] CompareResult compare_records(const BenchRecord& baseline,
                                            const BenchRecord& current,
                                            const CompareOptions& options = {});

}  // namespace rdp::perf
