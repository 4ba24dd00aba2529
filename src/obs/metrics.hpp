// Process-wide but explicitly-scoped metrics: counters, gauges, and
// streaming histograms (exact order-free moments plus log-linear
// quantile buckets, no sample storage). A MetricsRegistry is an explicit
// object -- nothing is recorded unless one is installed via
// obs::ObservabilityScope (see obs/hooks.hpp), and the instrumentation
// sites compile down to a null-pointer check when no registry is
// attached.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

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

/// Streaming distribution summary: count, min, max, exact moments and an
/// HDR-style log-linear bucket array for quantiles. Buckets subdivide
/// each power-of-two range into kSubBuckets linear slots, so a bucket's
/// midpoint is within 1/(2*kSubBuckets) < 1% of every value it absorbs
/// -- that is the documented relative-error bound on p50/p90/p99.
///
/// Order-free: every field of summary() is a function of the multiset
/// of observed values, so any observation order, and any grouping of
/// merge() calls, gives the same bits. Σx and Σx² are kept exactly, as
/// integer sums of IEEE-754 significands: per exponent for the values
/// with a regular bucket (the hot path: one add, one 64x64->128
/// multiply, one add with carry), and in a fixed-point accumulator for
/// everything else, allocated on the first such value. summary()
/// rounds sum and mean once each from those sums, and the variance
/// once from n Σx² - (Σx)², so mean and sum are correctly rounded.
///
/// Single owner, no lock: one thread fills and reads it (the serve
/// epilogue, the SLO window ring, the timeline replay). It is movable,
/// so a builder can fill one and hand it on. reset(), merge(),
/// summary() and quantile() touch only the live range [lo_, hi_] of
/// non-empty buckets, so a histogram that holds a few octaves costs a
/// few hundred buckets per call, not 4099. Histogram below is the
/// shared, locked form of the same thing.
class LocalHistogram {
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

  static constexpr std::size_t kNonPositive = 0;  ///< x <= 0 or NaN
  static constexpr std::size_t kUnderflow = 1;    ///< 0 < x, exp < kMinExp
  static constexpr std::size_t kFirstRegular = 2;
  static constexpr std::size_t kNumRegular =
      static_cast<std::size_t>(kMaxExp - kMinExp) *
      static_cast<std::size_t>(kSubBuckets);
  static constexpr std::size_t kOverflow = kFirstRegular + kNumRegular;  ///< and +inf
  static constexpr std::size_t kNumBuckets = kOverflow + 1;

  /// Summary semantics beyond finite values: a NaN counts and lands in
  /// the non-positive bucket, but is never a min or max; any NaN, or
  /// both infinities, make mean and sum NaN; otherwise an infinity makes
  /// them that infinity. stddev is 0 below two samples, NaN when a
  /// non-finite value was seen. -0.0 orders below +0.0 for min and max.
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

  LocalHistogram();
  ~LocalHistogram();
  LocalHistogram(LocalHistogram&&) noexcept;
  LocalHistogram& operator=(LocalHistogram&&) noexcept;

  void observe(double x) noexcept {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    // A regular bucket's x is a positive normal whose biased exponent
    // (sign bit clear) is e + 1022 for a frexp exponent e in [kMinExp,
    // kMaxExp); anything else wraps past kNumExponents.
    const std::uint64_t exponent =
        (bits >> 52) - static_cast<std::uint64_t>(kMinExp + 1022);
    if (exponent < kNumExponents) {
      count_in(kFirstRegular + exponent * static_cast<std::size_t>(kSubBuckets) +
               ((bits >> 46) & 63U));
      // x = sig * 2^(e - 53), sig in [2^52, 2^53): its exponent's sums
      // take sig and sig^2 (106 bits; the 128-bit square sum carries out
      // at most once per add).
      ExponentSums& sums = cells_->sums[exponent];
      const std::uint64_t sig = (bits & kMantissaMask) | (kMantissaMask + 1);
      sums.sig += sig;
      const u128 square = static_cast<u128>(sig) * sig;
      sums.square += square;
      sums.square_carries += sums.square < square ? 1U : 0U;
      track_extremes(static_cast<std::int64_t>(bits));
    } else if ((bits << 1) == 0) {
      count_in(kNonPositive);
      track_extremes(bits == 0 ? 0 : -1);  // the order keys of +0.0 and -0.0
    } else {
      count_in(bucket_index(x));
      observe_outside(x);
    }
  }

  [[nodiscard]] Summary summary() const noexcept;

  /// Bucket-estimated quantile for q in [0, 1] (nearest-rank). Within
  /// 1/(2*kSubBuckets) relative error of the exact order statistic for
  /// positive in-range samples; clamped to the observed [min, max].
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Folds `other` into this histogram: bucket-wise count addition and
  /// exact integer addition of the moment sums, so the result is the
  /// histogram of the union of both sample streams, bit for bit --
  /// merge is associative and commutative. The rollup primitive behind
  /// WindowedHistogram (obs/window.hpp) and sweep aggregation.
  void merge(const LocalHistogram& other) noexcept;

  /// Discards every recorded sample (counts, extremes, sums). The
  /// storage is retained, so a reset histogram is reusable without
  /// allocation -- window rings recycle interval slots through this.
  void reset() noexcept;

  /// The bucket `x` lands in. A positive normal x with frexp exponent e
  /// (x = f * 2^e, f in [0.5, 1)) goes to regular bucket
  /// (e - kMinExp) * kSubBuckets + floor((f - 0.5) * 2 * kSubBuckets);
  /// the exponent and the sub-bucket are read straight from the IEEE-754
  /// bits, which gives that bucket for every double.
  [[nodiscard]] static std::size_t bucket_index(double x) noexcept {
    static_assert(kSubBuckets == 64, "the sub-bucket is the top 6 mantissa bits");
    if (!(x > 0.0)) return kNonPositive;  // also catches NaN
    // x > 0, so the sign bit is clear. A normal x has frexp exponent
    // biased - 1022 and frac = (1 + mantissa / 2^52) / 2, so
    // (frac - 0.5) * 128 is exactly mantissa / 2^46: its top 6 bits.
    // Subnormals (biased exponent 0) fall below kMinExp and +inf (2047)
    // at or above kMaxExp, as they do through frexp.
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const int exp = static_cast<int>(bits >> 52) - 1022;
    if (exp < kMinExp) return kUnderflow;
    if (exp >= kMaxExp) return kOverflow;
    return kFirstRegular +
           static_cast<std::size_t>(exp - kMinExp) *
               static_cast<std::size_t>(kSubBuckets) +
           static_cast<std::size_t>((bits >> 46) & 63U);
  }
  /// Midpoint of regular bucket `index` -- its quantile representative.
  [[nodiscard]] static double bucket_midpoint(std::size_t index) noexcept;

 private:
  __extension__ typedef unsigned __int128 u128;
  static constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << 52) - 1;
  static constexpr std::size_t kNumExponents = kNumRegular / kSubBuckets;

  /// Exact sums over the values of one regular exponent: Σ sig (at most
  /// 2^53 * 2^64, so 128 bits never overflow) and Σ sig^2 as 128 bits
  /// plus a count of carries out of them.
  struct ExponentSums {
    u128 sig = 0;
    u128 square = 0;
    std::uint64_t square_carries = 0;
  };
  struct Cells {
    std::uint64_t buckets[kNumBuckets];
    ExponentSums sums[kNumExponents];
  };
  /// Exact Σx and Σx² of the values without a regular bucket (defined in
  /// metrics.cpp).
  struct OutsideSums;

  void count_in(std::size_t bucket) noexcept {
    ++cells_->buckets[bucket];
    lo_ = std::min(lo_, bucket);
    hi_ = std::max(hi_, bucket);
    ++count_;
  }
  /// Keeps min/max as IEEE-754 order keys: integer order is the total
  /// order on non-NaN doubles, -0.0 below +0.0, whatever the order of
  /// observation.
  void track_extremes(std::int64_t key) noexcept {
    min_key_ = std::min(min_key_, key);
    max_key_ = std::max(max_key_, key);
  }
  /// Negatives, subnormals, values beyond the regular exponents,
  /// infinities and NaN.
  void observe_outside(double x) noexcept;
  [[nodiscard]] double min_value() const noexcept;
  [[nodiscard]] double max_value() const noexcept;
  /// mean, stddev and sum of `s`, rounded from the exact sums.
  void fill_moments(Summary& s) const noexcept;

  /// Nearest-rank estimates for ascending `targets` over the live range.
  void quantiles(const double* targets, double* out,
                 std::size_t num_targets) const noexcept;

  std::unique_ptr<Cells> cells_;
  std::unique_ptr<OutsideSums> outside_;  // null until a value needs it
  std::uint64_t count_ = 0;
  std::int64_t min_key_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_key_ = std::numeric_limits<std::int64_t>::min();
  bool saw_nan_ = false;
  bool saw_pos_inf_ = false;
  bool saw_neg_inf_ = false;
  std::size_t lo_ = kNumBuckets;  // live range [lo_, hi_]; empty: lo_ > hi_
  std::size_t hi_ = 0;
};

/// The shared form of LocalHistogram: one short mutex around it, and
/// every method locks, then delegates. This is what the registry hands
/// out, so any thread may observe into a named histogram.
class Histogram {
 public:
  using Summary = LocalHistogram::Summary;

  void observe(double x) noexcept {
    std::lock_guard lock(mutex_);
    local_.observe(x);
  }

  [[nodiscard]] Summary summary() const noexcept {
    std::lock_guard lock(mutex_);
    return local_.summary();
  }

  [[nodiscard]] double quantile(double q) const noexcept {
    std::lock_guard lock(mutex_);
    return local_.quantile(q);
  }

  /// LocalHistogram::merge with both locks held together
  /// (std::scoped_lock), so `other` is folded as one consistent
  /// snapshot; still, never merge two histograms into each other
  /// concurrently.
  void merge(const Histogram& other) noexcept {
    if (this == &other) return;
    std::scoped_lock lock(mutex_, other.mutex_);
    local_.merge(other.local_);
  }

  void reset() noexcept {
    std::lock_guard lock(mutex_);
    local_.reset();
  }

 private:
  mutable std::mutex mutex_;
  LocalHistogram local_;
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
