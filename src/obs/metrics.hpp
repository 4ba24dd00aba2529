// Process-wide but explicitly-scoped metrics: counters, gauges, and
// streaming histograms (Welford moments plus log-linear quantile
// buckets, no sample storage). A MetricsRegistry is an explicit object --
// nothing is recorded unless one is installed via obs::ObservabilityScope
// (see obs/hooks.hpp), and the instrumentation sites compile down to a
// null-pointer check when no registry is attached.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "stats/welford.hpp"

namespace rdp {
class JsonValue;
}

namespace rdp::obs {

/// Monotonically increasing event count. Thread-safe, lock-free.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (queue depth, cells/sec, ...). Thread-safe.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

  /// Monotone maximum: keeps the largest value ever offered (CAS loop),
  /// so concurrent writers cannot lose the peak the way set() can.
  void set_max(double v) noexcept {
    double current = value_.load(std::memory_order_relaxed);
    while (v > current &&
           !value_.compare_exchange_weak(current, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming distribution summary: Welford moments (count/mean/stddev/
/// min/max), an exactly-compensated running sum (Neumaier), and an
/// HDR-style log-linear bucket array for quantiles. Buckets subdivide
/// each power-of-two range into kSubBuckets linear slots, so a bucket's
/// midpoint is within 1/(2*kSubBuckets) < 1% of every value it absorbs
/// -- that is the documented relative-error bound on p50/p90/p99.
///
/// Thread-safe: one short mutex guards the moments, the bucket counters
/// and the live range [lo_, hi_] of non-empty buckets. reset(), merge(),
/// summary() and quantile() touch only that range, so a histogram that
/// holds a few octaves costs a few hundred buckets per call, not 4099.
class Histogram {
 public:
  /// Linear subdivisions per power of two. 64 gives a worst-case
  /// quantile relative error of 1/128 ~= 0.8%.
  static constexpr int kSubBuckets = 64;
  /// frexp exponents covered exactly: [kMinExp, kMaxExp). Values below
  /// 2^(kMinExp-1) (~4.5e-13) or at/above 2^(kMaxExp-1) (~8.4e6) clamp
  /// to underflow/overflow buckets whose representative is the observed
  /// min/max.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 24;

  Histogram();

  void observe(double x) noexcept;

  struct Summary {
    std::uint64_t count = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };

  [[nodiscard]] Summary summary() const noexcept;

  /// Bucket-estimated quantile for q in [0, 1] (nearest-rank). Within
  /// 1/(2*kSubBuckets) relative error of the exact order statistic for
  /// positive in-range samples; clamped to the observed [min, max].
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Folds `other` into this histogram: bucket-wise count addition,
  /// Welford moment merge (Chan et al.), and Neumaier sums combined so
  /// the merged sum() stays exactly compensated. The result summarizes
  /// the union of both sample streams -- the rollup primitive behind
  /// WindowedHistogram (obs/window.hpp) and sweep aggregation. Both
  /// histograms' locks are held together (std::scoped_lock), so `other`
  /// is folded as one consistent snapshot; still, never merge two
  /// histograms into each other concurrently.
  void merge(const Histogram& other) noexcept;

  /// Discards every recorded sample (counts, moments, sums). The bucket
  /// array is retained, so a reset histogram is reusable without
  /// allocation -- window rings recycle interval slots through this.
  void reset() noexcept;

 private:
  static constexpr std::size_t kNonPositive = 0;  ///< x <= 0
  static constexpr std::size_t kUnderflow = 1;    ///< 0 < x, exp < kMinExp
  static constexpr std::size_t kFirstRegular = 2;
  static constexpr std::size_t kNumRegular =
      static_cast<std::size_t>(kMaxExp - kMinExp) *
      static_cast<std::size_t>(kSubBuckets);
  static constexpr std::size_t kOverflow = kFirstRegular + kNumRegular;
  static constexpr std::size_t kNumBuckets = kOverflow + 1;

  [[nodiscard]] static std::size_t bucket_index(double x) noexcept;
  [[nodiscard]] static double bucket_midpoint(std::size_t index) noexcept;

  /// Nearest-rank estimates for ascending `targets` over the live range.
  /// Caller holds mutex_.
  void quantiles_locked(const double* targets, double* out,
                        std::size_t num_targets) const noexcept;

  mutable std::mutex mutex_;
  Welford welford_;
  double sum_ = 0.0;              // Neumaier-compensated running sum
  double sum_compensation_ = 0.0;
  std::unique_ptr<std::uint64_t[]> buckets_;
  std::size_t lo_ = kNumBuckets;  // live range [lo_, hi_]; empty: lo_ > hi_
  std::size_t hi_ = 0;
};

/// A point-in-time copy of every metric in a registry, detached from the
/// registry's locks (safe to serialize, attach to reports, compare).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Summary> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Counter value by name, or `fallback` when the counter was never
  /// touched (sites only materialize metrics they actually hit).
  [[nodiscard]] std::uint64_t counter_or(const std::string& name,
                                         std::uint64_t fallback = 0) const {
    const auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }

  /// Serializes as a JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{...}}.
  [[nodiscard]] std::string to_json(int indent = 2) const;
};

/// The snapshot as a JsonValue (io/json.hpp), for embedding in larger
/// documents (e.g. ExperimentReport).
[[nodiscard]] JsonValue metrics_snapshot_json(const MetricsSnapshot& snapshot);

/// One histogram summary as the canonical JSON object
/// {count,mean,stddev,min,max,sum,p50,p90,p99} -- the single schema the
/// metrics snapshot, `rdp_cli serve --json`, and the SLO engine all emit
/// and consume.
[[nodiscard]] JsonValue histogram_summary_json(const Histogram::Summary& s);

/// Named metric registry. Lookup is mutex-protected; the returned
/// references are stable for the registry's lifetime (node-based storage),
/// so hot paths look a metric up once and then touch only atomics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Writes snapshot().to_json() to `path` (throws std::runtime_error on
  /// I/O failure).
  void save_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// RAII wall-clock timer: observes the elapsed seconds into a histogram
/// on destruction. A null histogram makes it a no-op (and skips the clock
/// reads entirely).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist) noexcept
      : hist_(hist),
        start_(hist ? std::chrono::steady_clock::now()
                    : std::chrono::steady_clock::time_point{}) {}

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->observe(std::chrono::duration<double>(elapsed).count());
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace rdp::obs
