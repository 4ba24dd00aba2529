// Benchmark records for the perf regression gate.
//
// A BenchRecord is one schema for every gated benchmark -- metric name ->
// {value, direction, noise class, repeats} -- plus the provenance a
// comparison needs to be honest: which parameters produced the numbers
// (hashed), on which host, at which git revision. Each gated bench builds
// its record itself (`add` one metric at a time, next to the code that
// measures it) and writes it with `save`; `rdp_cli perf record` merges
// repeated runs into committed baselines under bench/baselines/, and
// `perf compare`/`perf gate` (perf/compare.hpp) diff a fresh run against
// them. A `--metrics-out` snapshot loads as a record too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rdp {
class JsonValue;
}

namespace rdp::perf {

/// Which way is better: lower (seconds, mismatch counts), higher (hit
/// rate, speedup), or none (informational -- recorded and reported but
/// never gated on). On disk: "lower" | "higher" | "none".
enum class Direction { kLower, kHigher, kNone };

/// Noise class: timing metrics get the wide relative tolerance and
/// MAD-based slack; exact metrics (counts, rates, numerical error bounds)
/// must match up to tiny numeric tolerances. On disk: "timing" | "exact".
enum class Noise { kTiming, kExact };

[[nodiscard]] std::string_view to_string(Direction direction);
[[nodiscard]] std::string_view to_string(Noise noise);

/// One metric. `value` is the representative number used for
/// comparison: the *best* observation across repeats (min for
/// lower-is-better, max for higher-is-better), which is the standard
/// noise-rejection trick for timing benchmarks -- noise only ever makes
/// timings worse, so min-of-k converges on the true cost.
struct BenchMetric {
  std::string name;
  double value = 0;
  Direction direction = Direction::kLower;
  Noise noise = Noise::kTiming;

  /// Absolute slack always granted in comparisons, independent of the
  /// relative tolerance. Used for metrics whose baseline is legitimately
  /// near zero (per-dispatch overhead in nanoseconds) where a relative
  /// threshold degenerates.
  double abs_slack = 0;

  /// Every observation that went into `value` (>= 1 entry). Populated
  /// with more than one entry by min-of-k recording.
  std::vector<double> repeats;

  /// Median absolute deviation of `repeats` -- the comparison widens its
  /// threshold by a multiple of this, so noisy metrics self-report how
  /// much slack they need. 0 with a single repeat.
  double mad = 0;
};

/// One benchmark run: the unit `perf compare` diffs.
struct BenchRecord {
  int schema_version = 1;
  std::string name;         ///< logical bench name, e.g. "certify"
  std::string source;       ///< filename the record was loaded from
  std::string params_hash;  ///< 16-hex FNV-1a of the params JSON ("" = none)
  std::string params_json;  ///< compact dump of the params object, for humans
  std::string git_sha;      ///< HEAD at record time ("unknown" outside git)
  std::string host;         ///< host fingerprint, e.g. "Linux/x86_64/ncpu=8"
  std::map<std::string, BenchMetric> metrics;

  /// Adds (or replaces) one metric observed once.
  void add(std::string metric, double value, Direction direction, Noise noise,
           double abs_slack = 0);

  /// Sets params_json to the compact dump of `params` and params_hash to
  /// its FNV-1a hash: the workload identity compare() checks.
  void set_params(const JsonValue& params);

  [[nodiscard]] const BenchMetric* find(const std::string& metric) const;

  [[nodiscard]] std::string to_json(int indent = 2) const;
  void save(const std::string& path) const;
};

/// Reads a parsed benchmark JSON document as a BenchRecord. Two shapes:
///   - "schema_version" + "metrics"    -> a saved BenchRecord
///   - "counters" + "histograms"       -> a --metrics-out snapshot
/// Throws std::runtime_error naming `source` on any other shape, and on
/// a record metric with an unknown direction/noise label or a
/// non-numeric or non-finite value, repeat or abs_slack.
[[nodiscard]] BenchRecord normalize_bench_json(const JsonValue& doc,
                                               const std::string& source);

/// Reads one benchmark JSON file (either supported shape).
/// Throws std::runtime_error on missing file / parse error / unknown shape.
[[nodiscard]] BenchRecord load_bench_file(const std::string& path);

/// Merges k >= 1 records of the *same* benchmark (same name, same params
/// hash -- throws on mismatch) into one min-of-k record: each metric's
/// repeats are concatenated, `value` becomes the best repeat in the
/// metric's direction, and `mad` is recomputed over all repeats.
[[nodiscard]] BenchRecord merge_repeats(const std::vector<BenchRecord>& runs);

/// "sysname/machine/ncpu=N" via uname(2), or "unknown" where unavailable.
/// Comparisons across differing fingerprints still run but are flagged.
[[nodiscard]] std::string host_fingerprint();

/// FNV-1a over a string, formatted as 16 hex digits (the same convention
/// as the repro manifest's input hashes).
[[nodiscard]] std::string fnv1a_hex(const std::string& text);

}  // namespace rdp::perf
