// Tests for the observability layer (src/obs/): metrics registry,
// tracer, RAII scoping, the determinism guarantee (enabling sinks never
// changes any simulation result -- ARCHITECTURE.md §5), and a
// multi-threaded stress test of MetricsRegistry under run_sweep_parallel
// (run under TSan via the `tsan` CTest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/strategy.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exp/ratio_experiment.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "io/json.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/stochastic.hpp"
#include "serve/streaming_dispatcher.hpp"
#include "sim/failures.hpp"
#include "sim/online_dispatcher.hpp"
#include "sim/speculative.hpp"
#include "sim/transfer_dispatcher.hpp"
#include "workload/generators.hpp"

namespace rdp {
namespace {

Instance test_instance(std::size_t n = 40, MachineId m = 4) {
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = 11;
  return uniform_workload(params);
}

// --- MetricsRegistry -------------------------------------------------------

TEST(Metrics, CountersAccumulate) {
  obs::MetricsRegistry registry;
  registry.counter("a").add();
  registry.counter("a").add(4);
  registry.counter("b").add(2);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_EQ(registry.counter("b").value(), 2u);
}

TEST(Metrics, GaugeKeepsLastValue) {
  obs::MetricsRegistry registry;
  registry.gauge("depth").set(3.0);
  registry.gauge("depth").set(7.5);
  EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 7.5);
}

TEST(Metrics, HistogramMatchesWelford) {
  obs::MetricsRegistry registry;
  obs::Histogram& h = registry.histogram("x");
  Welford reference;
  for (double v : {1.0, 2.0, 3.0, 4.0, 10.0}) {
    h.observe(v);
    reference.add(v);
  }
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, reference.count());
  EXPECT_DOUBLE_EQ(s.mean, reference.mean());
  EXPECT_DOUBLE_EQ(s.stddev, reference.stddev());
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.sum, 20.0);
}

TEST(Metrics, GaugeSetMaxKeepsPeak) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("peak");
  g.set_max(3.0);
  g.set_max(7.0);
  g.set_max(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, GaugeSetMaxConcurrentNeverLosesPeak) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.gauge("peak");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 1000; ++i) {
        g.set_max(static_cast<double>(t * 1000 + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), 3999.0);
}

// --- Quantiles (log-linear buckets, documented <= 1% relative error) -------

// Nearest-rank order statistic on the raw sample -- the ground truth the
// histogram's bucketed quantile approximates.
double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<std::size_t>(rank, 1), n);
  return xs[rank - 1];
}

void expect_quantiles_within_bound(const std::vector<double>& samples) {
  obs::Histogram h;
  for (double v : samples) h.observe(v);
  const obs::Histogram::Summary s = h.summary();
  const double quantiles[] = {0.50, 0.90, 0.99};
  const double reported[] = {s.p50, s.p90, s.p99};
  for (int i = 0; i < 3; ++i) {
    const double exact = exact_quantile(samples, quantiles[i]);
    // Documented bound: 1/(2 * kSubBuckets) relative error per bucket,
    // i.e. < 1%; allow exactly that plus float fuzz.
    const double tolerance =
        std::abs(exact) / (2.0 * obs::LocalHistogram::kSubBuckets) + 1e-12;
    EXPECT_NEAR(reported[i], exact, tolerance)
        << "q=" << quantiles[i] << " over " << samples.size() << " samples";
    EXPECT_DOUBLE_EQ(reported[i], h.quantile(quantiles[i]));
  }
}

TEST(HistogramQuantiles, UniformSamplesWithinDocumentedBound) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> dist(0.5, 100.0);
  std::vector<double> samples(10000);
  for (double& v : samples) v = dist(rng);
  expect_quantiles_within_bound(samples);
}

TEST(HistogramQuantiles, LognormalSamplesWithinDocumentedBound) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  std::vector<double> samples(10000);
  for (double& v : samples) v = dist(rng);
  expect_quantiles_within_bound(samples);
}

TEST(HistogramQuantiles, TwoPointSamplesWithinDocumentedBound) {
  std::mt19937_64 rng(3);
  std::bernoulli_distribution high(0.08);  // p99 lands on the high atom
  std::vector<double> samples(10000);
  for (double& v : samples) v = high(rng) ? 3.0 : 1.0;
  expect_quantiles_within_bound(samples);
}

TEST(HistogramQuantiles, QuantilesClampToObservedRange) {
  obs::Histogram h;
  for (double v : {2.0, 4.0, 8.0}) h.observe(v);
  EXPECT_GE(h.quantile(0.0), 2.0);
  EXPECT_LE(h.quantile(1.0), 8.0);
  const obs::Histogram::Summary s = h.summary();
  EXPECT_GE(s.p50, s.min);
  EXPECT_LE(s.p99, s.max);
}

TEST(HistogramQuantiles, EmptyHistogramReportsZeroes) {
  obs::Histogram h;
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p90, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(HistogramQuantiles, SnapshotJsonCarriesPercentiles) {
  obs::MetricsRegistry registry;
  for (int i = 1; i <= 100; ++i) {
    registry.histogram("lat").observe(static_cast<double>(i));
  }
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// --- Compensated sum (satellite: sum is Neumaier-exact, not mean*count) ----

TEST(HistogramSum, CompensatedSumMatchesExactWithinOneUlp) {
  std::mt19937_64 rng(1234);
  std::lognormal_distribution<double> dist(-8.0, 2.0);  // latency-like spread
  obs::Histogram h;
  long double exact = 0.0L;
  for (int i = 0; i < 10000; ++i) {
    const double v = dist(rng);
    h.observe(v);
    exact += static_cast<long double>(v);
  }
  const double expected = static_cast<double>(exact);
  const obs::Histogram::Summary s = h.summary();
  const double lo = std::nextafter(expected, -std::numeric_limits<double>::infinity());
  const double hi = std::nextafter(expected, std::numeric_limits<double>::infinity());
  EXPECT_GE(s.sum, lo);
  EXPECT_LE(s.sum, hi);
  // And nothing like the old mean*count rounding: mean recomputed from the
  // exact sum agrees with Welford's mean to float fuzz.
  EXPECT_NEAR(s.sum / static_cast<double>(s.count), s.mean,
              1e-12 * std::abs(s.mean));
}

// --- Histogram::merge (satellite: the WindowedHistogram rollup primitive) --

TEST(HistogramMerge, MergedQuantilesMatchExactOrderStatistics) {
  // Two disjoint regimes recorded into separate histograms; the merge
  // must summarize the union within the same documented quantile bound
  // as a single histogram fed the concatenated stream.
  std::mt19937_64 rng(77);
  std::lognormal_distribution<double> fast(0.0, 0.5);
  std::lognormal_distribution<double> slow(2.0, 0.5);
  obs::Histogram a;
  obs::Histogram b;
  std::vector<double> all;
  for (int i = 0; i < 6000; ++i) {
    const double v = fast(rng);
    a.observe(v);
    all.push_back(v);
  }
  for (int i = 0; i < 4000; ++i) {
    const double v = slow(rng);
    b.observe(v);
    all.push_back(v);
  }
  a.merge(b);
  const obs::Histogram::Summary s = a.summary();
  ASSERT_EQ(s.count, all.size());
  const double quantiles[] = {0.50, 0.90, 0.99};
  const double reported[] = {s.p50, s.p90, s.p99};
  for (int i = 0; i < 3; ++i) {
    const double exact = exact_quantile(all, quantiles[i]);
    const double tolerance =
        std::abs(exact) / (2.0 * obs::LocalHistogram::kSubBuckets) + 1e-12;
    EXPECT_NEAR(reported[i], exact, tolerance) << "q=" << quantiles[i];
  }
  // Moments and extremes of the union, not just buckets.
  Welford reference;
  long double exact_sum = 0.0L;
  double lo = all[0];
  double hi = all[0];
  for (double v : all) {
    reference.add(v);
    exact_sum += static_cast<long double>(v);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(s.mean, reference.mean(), 1e-9 * std::abs(reference.mean()));
  EXPECT_NEAR(s.stddev, reference.stddev(), 1e-9 * reference.stddev());
  EXPECT_DOUBLE_EQ(s.min, lo);
  EXPECT_DOUBLE_EQ(s.max, hi);
  EXPECT_NEAR(s.sum, static_cast<double>(exact_sum),
              1e-12 * std::abs(static_cast<double>(exact_sum)));
}

TEST(HistogramMerge, EmptyOperandsAreIdentity) {
  obs::Histogram a;
  obs::Histogram empty;
  for (double v : {1.0, 2.0, 3.0}) a.observe(v);
  const obs::Histogram::Summary before = a.summary();
  a.merge(empty);
  EXPECT_EQ(a.summary().count, before.count);
  EXPECT_DOUBLE_EQ(a.summary().mean, before.mean);
  empty.merge(a);  // merging into an empty histogram copies the stream
  const obs::Histogram::Summary copied = empty.summary();
  EXPECT_EQ(copied.count, before.count);
  EXPECT_DOUBLE_EQ(copied.mean, before.mean);
  EXPECT_DOUBLE_EQ(copied.min, before.min);
  EXPECT_DOUBLE_EQ(copied.max, before.max);
}

TEST(HistogramMerge, ResetForgetsSamplesButStaysUsable) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_DOUBLE_EQ(h.summary().sum, 0.0);
  h.observe(5.0);
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
}

// --- Live bucket range (reset/merge/summary touch only non-empty buckets) --

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_summary(const obs::Histogram::Summary& a,
                         const obs::Histogram::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(bits(a.mean), bits(b.mean));
  EXPECT_EQ(bits(a.stddev), bits(b.stddev));
  EXPECT_EQ(bits(a.min), bits(b.min));
  EXPECT_EQ(bits(a.max), bits(b.max));
  EXPECT_EQ(bits(a.sum), bits(b.sum));
  EXPECT_EQ(bits(a.p50), bits(b.p50));
  EXPECT_EQ(bits(a.p90), bits(b.p90));
  EXPECT_EQ(bits(a.p99), bits(b.p99));
}

// Quantiles depend only on bucket counts and the observed extremes, so a
// merge must reproduce the union's estimate exactly at every q.
void expect_same_quantiles(const obs::Histogram& a, const obs::Histogram& b) {
  for (int i = 0; i <= 200; ++i) {
    const double q = static_cast<double>(i) / 200.0;
    EXPECT_EQ(bits(a.quantile(q)), bits(b.quantile(q))) << "q=" << q;
  }
}

TEST(HistogramLiveRange, ResetThenObserveInDisjointOctave) {
  obs::Histogram h;
  obs::Histogram fresh;
  for (int i = 0; i < 500; ++i) h.observe(1000.0 + static_cast<double>(i));
  h.reset();
  for (int i = 0; i < 300; ++i) {
    const double v = 0.001 * (1.0 + static_cast<double>(i) / 300.0);
    h.observe(v);
    fresh.observe(v);
  }
  expect_same_summary(h.summary(), fresh.summary());
  expect_same_quantiles(h, fresh);
  EXPECT_LT(h.quantile(1.0), 0.0021);
  // Growing the range back over the old octave finds every bucket there
  // empty: nothing from before the reset resurfaces.
  for (int i = 0; i < 40; ++i) {
    const double v = 0.001 * std::pow(1.5, i);
    h.observe(v);
    fresh.observe(v);
  }
  expect_same_summary(h.summary(), fresh.summary());
  expect_same_quantiles(h, fresh);
}

TEST(HistogramLiveRange, MergeOfDisjointAndOverlappingRangesEqualsUnion) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> low(1.0, 2.0);
  std::uniform_real_distribution<double> high(100.0, 200.0);
  std::uniform_real_distribution<double> wide(1.0, 50.0);
  std::uniform_real_distribution<double> wider(10.0, 500.0);
  using Dist = std::uniform_real_distribution<double>;
  for (const auto& [da, db] : {std::pair<Dist*, Dist*>{&low, &high},
                               std::pair<Dist*, Dist*>{&high, &low},
                               std::pair<Dist*, Dist*>{&wide, &wider}}) {
    obs::Histogram a;
    obs::Histogram b;
    obs::Histogram both;
    for (int i = 0; i < 700; ++i) {
      const double v = (*da)(rng);
      a.observe(v);
      both.observe(v);
    }
    for (int i = 0; i < 400; ++i) {
      const double v = (*db)(rng);
      b.observe(v);
      both.observe(v);
    }
    a.merge(b);
    EXPECT_EQ(a.summary().count, both.summary().count);
    EXPECT_EQ(bits(a.summary().min), bits(both.summary().min));
    EXPECT_EQ(bits(a.summary().max), bits(both.summary().max));
    expect_same_quantiles(a, both);
  }
}

TEST(HistogramLiveRange, EdgeBucketsNonPositiveUnderflowAndOverflow) {
  // The range edges: bucket 0 (x <= 0), bucket 1 (underflow below
  // 2^(kMinExp-1)) and the overflow bucket at the top.
  obs::Histogram h;
  obs::Histogram top;
  for (const double v : {-3.0, 0.0, -0.0}) h.observe(v);
  for (const double v : {1e-14, 2e-14}) h.observe(v);
  for (const double v : {1e7, 5e8}) top.observe(v);
  // No log-linear midpoint at the edges: the bottom two buckets report
  // the observed min, the overflow bucket the observed max.
  EXPECT_EQ(h.quantile(0.0), -3.0);
  EXPECT_EQ(h.quantile(1.0), -3.0);
  EXPECT_EQ(top.quantile(0.0), 5e8);
  EXPECT_EQ(top.quantile(1.0), 5e8);
  obs::Histogram both;
  for (const double v : {-3.0, 0.0, -0.0, 1e-14, 2e-14, 1e7, 5e8}) both.observe(v);
  h.merge(top);
  expect_same_quantiles(h, both);
  EXPECT_EQ(h.summary().count, 7u);
  EXPECT_EQ(h.quantile(0.0), -3.0);
  EXPECT_EQ(h.quantile(1.0), 5e8);
  // Clearing both edges leaves a histogram that tracks a mid-range value.
  h.reset();
  h.observe(3.0);
  EXPECT_EQ(h.quantile(0.0), 3.0);
  EXPECT_EQ(h.quantile(1.0), 3.0);
}

TEST(HistogramLiveRange, SummaryAfterResetIsEmpty) {
  obs::Histogram h;
  for (const double v : {-1.0, 1e-20, 4.0, 1e12}) h.observe(v);
  h.reset();
  expect_same_summary(h.summary(), obs::Histogram{}.summary());
  EXPECT_EQ(bits(h.quantile(0.5)), bits(0.0));
  obs::Histogram target;
  target.merge(h);  // an emptied histogram merges as the identity
  expect_same_summary(target.summary(), obs::Histogram{}.summary());
}

TEST(HistogramLiveRange, ConcurrentObserveKeepsCountsAndQuantilesExact) {
  // Bucket counts are order-independent, so however the threads
  // interleave, count and every quantile match a serial histogram fed
  // the same multiset.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  obs::Histogram shared;
  obs::Histogram serial;
  const auto value = [](int t, int i) {
    return std::ldexp(1.0 + static_cast<double>(i % 97) / 97.0, t * 3 - 4 + i % 5);
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &value, t] {
      for (int i = 0; i < kPerThread; ++i) shared.observe(value(t, i));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) serial.observe(value(t, i));
  }
  const obs::Histogram::Summary s = shared.summary();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(bits(s.min), bits(serial.summary().min));
  EXPECT_EQ(bits(s.max), bits(serial.summary().max));
  expect_same_quantiles(shared, serial);
}

// --- Bit-level bucket index and the LocalHistogram / Histogram split ------

// The bucket formula as it was written through std::frexp: the oracle the
// IEEE-754 bit reading must agree with on every double.
std::size_t frexp_bucket_index(double x) {
  using H = obs::LocalHistogram;
  if (!(x > 0.0)) return H::kNonPositive;
  if (!std::isfinite(x)) return H::kOverflow;
  int exp = 0;
  const double frac = std::frexp(x, &exp);
  if (exp < H::kMinExp) return H::kUnderflow;
  if (exp >= H::kMaxExp) return H::kOverflow;
  int sub = static_cast<int>((frac - 0.5) * (2 * H::kSubBuckets));
  sub = std::clamp(sub, 0, H::kSubBuckets - 1);
  return H::kFirstRegular +
         static_cast<std::size_t>(exp - H::kMinExp) * H::kSubBuckets +
         static_cast<std::size_t>(sub);
}

void expect_bucket_matches_frexp(double x) {
  EXPECT_EQ(obs::LocalHistogram::bucket_index(x), frexp_bucket_index(x))
      << "x=" << x << " bits=0x" << std::hex << bits(x);
}

TEST(HistogramBucketIndex, MatchesFrexpAtEdgesAndSpecialValues) {
  using H = obs::LocalHistogram;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (int e = -1074; e <= 1023; ++e) expect_bucket_matches_frexp(std::ldexp(1.0, e));
  // Every sub-bucket edge of every covered octave (and one octave past
  // each end), with its nextafter neighbours on both sides.
  for (int e = H::kMinExp - 1; e <= H::kMaxExp + 1; ++e) {
    for (int sub = 0; sub <= H::kSubBuckets; ++sub) {
      const double edge = std::ldexp(0.5 + sub / (2.0 * H::kSubBuckets), e);
      for (const double x : {std::nextafter(edge, 0.0), edge, std::nextafter(edge, kInf)}) {
        expect_bucket_matches_frexp(x);
      }
    }
  }
  for (const double x :
       {std::ldexp(1.0, H::kMinExp - 1), std::ldexp(1.0, H::kMaxExp - 1),
        std::nextafter(std::ldexp(1.0, H::kMinExp - 1), 0.0),
        std::nextafter(std::ldexp(1.0, H::kMaxExp - 1), 0.0),
        std::numeric_limits<double>::denorm_min(), 3 * std::numeric_limits<double>::denorm_min(),
        std::nextafter(std::numeric_limits<double>::min(), 0.0),
        std::numeric_limits<double>::min(), std::numeric_limits<double>::max(), 0.0, -0.0,
        kInf, -kInf, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(), -1.0, -std::numeric_limits<double>::max()}) {
    expect_bucket_matches_frexp(x);
  }
  EXPECT_EQ(H::bucket_index(std::ldexp(1.0, H::kMinExp - 1)), H::kFirstRegular);
  EXPECT_EQ(H::bucket_index(std::nextafter(std::ldexp(1.0, H::kMaxExp - 1), 0.0)),
            H::kOverflow - 1);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::denorm_min()), H::kUnderflow);
  EXPECT_EQ(H::bucket_index(kInf), H::kOverflow);
  EXPECT_EQ(H::bucket_index(std::numeric_limits<double>::quiet_NaN()), H::kNonPositive);
}

TEST(HistogramBucketIndex, MatchesFrexpOnRandomBitPatterns) {
  std::mt19937_64 rng(2024);
  std::size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double x = std::bit_cast<double>(rng());
    if (obs::LocalHistogram::bucket_index(x) != frexp_bucket_index(x) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits=0x" << std::hex << bits(x);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(HistogramBucketIndex, EveryRegularMidpointLandsInItsBucket) {
  using H = obs::LocalHistogram;
  for (std::size_t b = H::kFirstRegular; b < H::kOverflow; ++b) {
    EXPECT_EQ(H::bucket_index(H::bucket_midpoint(b)), b);
  }
}

// Histogram is LocalHistogram behind a lock: the same observe / merge /
// reset sequence must leave bit-identical summaries and quantiles.
TEST(HistogramSplit, LockedAndLocalAgreeBitwise) {
  std::mt19937_64 rng(99);
  std::lognormal_distribution<double> dist(0.0, 3.0);
  std::uniform_int_distribution<int> op(0, 99);
  const auto draw = [&] {
    switch (op(rng) % 10) {
      case 0: return -dist(rng);
      case 1: return 0.0;
      case 2: return dist(rng) * 1e-15;  // underflow
      case 3: return dist(rng) * 1e9;    // overflow
      default: return dist(rng);
    }
  };
  obs::LocalHistogram local, local_side;
  obs::Histogram locked, locked_side;
  const auto expect_same = [](const obs::LocalHistogram& a, const obs::Histogram& b) {
    expect_same_summary(a.summary(), b.summary());
    for (const double q : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(bits(a.quantile(q)), bits(b.quantile(q))) << "q=" << q;
    }
  };
  for (int step = 0; step < 2000; ++step) {
    const int o = op(rng);
    if (o < 80) {
      const double x = draw();
      local.observe(x);
      locked.observe(x);
    } else if (o < 92) {
      const double x = draw();
      local_side.observe(x);
      locked_side.observe(x);
    } else if (o < 97) {
      local.merge(local_side);
      locked.merge(locked_side);
    } else if (o < 98) {
      local_side.reset();
      locked_side.reset();
    } else {
      local.reset();
      locked.reset();
    }
    expect_same(local, locked);
  }
  // A moved-from builder hands its whole state on.
  const obs::LocalHistogram moved(std::move(local));
  expect_same(moved, locked);
}

TEST(Metrics, ReferencesAreStableAcrossLookups) {
  obs::MetricsRegistry registry;
  obs::Counter& first = registry.counter("same");
  registry.counter("other").add();  // force more nodes
  obs::Counter& second = registry.counter("same");
  EXPECT_EQ(&first, &second);
}

TEST(Metrics, SnapshotIsDetachedCopy) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(3);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(2.0);
  const obs::MetricsSnapshot snap = registry.snapshot();
  registry.counter("c").add(100);  // must not affect the snapshot
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 1.5);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(obs::MetricsSnapshot{}.empty());
}

TEST(Metrics, SnapshotJsonHasAllSections) {
  obs::MetricsRegistry registry;
  registry.counter("calls").add(2);
  registry.histogram("dur").observe(0.5);
  const std::string json = registry.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"calls\": 2"), std::string::npos);
}

TEST(Metrics, ScopedTimerObservesElapsedSeconds) {
  obs::MetricsRegistry registry;
  { obs::ScopedTimer timer(&registry.histogram("t")); }
  const obs::Histogram::Summary s = registry.histogram("t").summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.min, 0.0);
  { obs::ScopedTimer noop(nullptr); }  // must not crash
}

// --- Tracer ---------------------------------------------------------------

TEST(Tracer, RecordsSpansAndInstants) {
  obs::Tracer tracer;
  {
    obs::ScopedSpan span(&tracer, "work", "test");
  }
  tracer.instant("tick", "test", "{\"k\":1}");
  ASSERT_EQ(tracer.size(), 2u);
  const auto events = tracer.events();
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[1].name, "tick");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].args_json, "{\"k\":1}");
}

TEST(Tracer, ChromeTraceFormatIsWellFormed) {
  obs::Tracer tracer;
  { obs::ScopedSpan span(&tracer, "sp\"an", "cat"); }
  tracer.instant("i", "cat");
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":"), std::string::npos);
  EXPECT_NE(out.find("sp\\\"an"), std::string::npos);  // escaped quote
}

TEST(Tracer, JsonlEmitsOneLinePerEvent) {
  obs::Tracer tracer;
  tracer.instant("a", "c");
  tracer.instant("b", "c");
  std::ostringstream os;
  tracer.write_jsonl(os);
  const std::string out = os.str();
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
}

TEST(Tracer, NullScopedSpanIsNoop) {
  obs::ScopedSpan span(nullptr, "x", "y");
  SUCCEED();
}

// --- Bounded tracer buffer (satellite) -------------------------------------

TEST(Tracer, CapacityBoundsBufferAndCountsDrops) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer(8);
  EXPECT_EQ(tracer.capacity(), 8u);
  obs::ObservabilityScope scope(&registry, &tracer);
  for (int i = 0; i < 20; ++i) tracer.instant("e", "c");
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 12u);
  EXPECT_EQ(registry.counter("trace.events_dropped").value(), 12u);

  // Both export formats surface the drop count.
  std::ostringstream chrome;
  tracer.write_chrome_trace(chrome);
  EXPECT_NE(chrome.str().find("\"events_dropped\":12"), std::string::npos);
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  EXPECT_NE(jsonl.str().find("rdp_trace_header"), std::string::npos);
  EXPECT_NE(jsonl.str().find("\"events_dropped\":12"), std::string::npos);

  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  std::ostringstream clean;
  tracer.write_jsonl(clean);
  EXPECT_EQ(clean.str().find("rdp_trace_header"), std::string::npos)
      << "no drops -> no header line";
}

TEST(Tracer, DefaultCapacityIsLarge) {
  obs::Tracer tracer;
  EXPECT_EQ(tracer.capacity(), obs::Tracer::kDefaultCapacity);
  EXPECT_EQ(tracer.dropped(), 0u);
}

// --- Scoping --------------------------------------------------------------

TEST(ObsScope, DefaultIsDisabled) {
  EXPECT_EQ(obs::metrics(), nullptr);
  EXPECT_EQ(obs::tracer(), nullptr);
  EXPECT_EQ(obs::sampler(), nullptr);
  EXPECT_FALSE(obs::enabled());
}

TEST(ObsScope, InstallsAndRestoresNested) {
  obs::MetricsRegistry outer_registry;
  obs::Tracer tracer;
  {
    obs::ObservabilityScope outer(&outer_registry, &tracer);
    EXPECT_EQ(obs::metrics(), &outer_registry);
    EXPECT_EQ(obs::tracer(), &tracer);
    {
      obs::MetricsRegistry inner_registry;
      obs::ObservabilityScope inner(&inner_registry, nullptr);
      EXPECT_EQ(obs::metrics(), &inner_registry);
      EXPECT_EQ(obs::tracer(), nullptr);
    }
    EXPECT_EQ(obs::metrics(), &outer_registry);
    EXPECT_EQ(obs::tracer(), &tracer);
  }
  EXPECT_FALSE(obs::enabled());
}

// --- RunSampler (satellite: time-series sampling) --------------------------

TEST(Sampler, WritesParseableJsonlAndShutsDownCleanly) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rdp_test_sampler.jsonl";
  fs::remove(path);

  obs::MetricsRegistry registry;
  std::size_t samples = 0;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    obs::RunSamplerOptions options;
    options.path = path.string();
    options.period = std::chrono::milliseconds(5);
    obs::RunSampler sampler(nullptr, options);
    EXPECT_EQ(obs::sampler(), &sampler);
    EXPECT_EQ(sampler.period_ms(), 5u);

    registry.counter("demo.ticks").add(3);
    registry.histogram("demo.seconds").observe(0.25);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sampler.stop();
    sampler.stop();  // idempotent
    samples = sampler.samples();
    EXPECT_GE(samples, 1u);  // at least the final sample at stop()
  }
  EXPECT_EQ(obs::sampler(), nullptr) << "destruction restores the global";

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::string last_line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const JsonValue v = parse_json(line);  // throws on malformed output
    EXPECT_NE(v.find("t"), nullptr);
    EXPECT_NE(v.find("counters"), nullptr);
    EXPECT_NE(v.find("histograms"), nullptr);
    last_line = line;
  }
  EXPECT_EQ(lines, samples);
  // The final sample (written at stop) reflects the recorded state.
  ASSERT_FALSE(last_line.empty());
  const JsonValue last = parse_json(last_line);
  EXPECT_DOUBLE_EQ(last.find("counters")->get_number("demo.ticks"), 3.0);
  fs::remove(path);
}

TEST(Sampler, ShortRunStillProducesFinalSample) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rdp_test_sampler_short.jsonl";
  fs::remove(path);
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    // Period far longer than the run: only the stop-time sample appears.
    obs::RunSamplerOptions options;
    options.path = path.string();
    options.period = std::chrono::seconds(3600);
    obs::RunSampler sampler(nullptr, options);
    registry.counter("quick").add(1);
  }  // destructor stops and flushes
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1u);
  fs::remove(path);
}

TEST(Sampler, UnopenablePathThrowsAndRestoresGlobal) {
  obs::RunSamplerOptions options;
  options.path = "/nonexistent_rdp_dir/sub/never.jsonl";
  EXPECT_THROW({ obs::RunSampler sampler(nullptr, options); }, std::runtime_error);
  EXPECT_EQ(obs::sampler(), nullptr);
}

// Satellite: every sample carries a "deltas" section -- per-counter
// increments since the previous sample (the first sample's deltas equal
// the absolute values). Rates fall out of a JSONL scan without
// differencing cumulative counters by hand.
TEST(Sampler, DeltasFieldCarriesPerSampleIncrements) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "rdp_test_sampler_deltas.jsonl";
  fs::remove(path);
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    obs::RunSamplerOptions options;
    options.path = path.string();
    options.period = std::chrono::milliseconds(10);
    obs::RunSampler sampler(nullptr, options);
    registry.counter("work.done").add(5);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    registry.counter("work.done").add(2);
    sampler.stop();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  std::uint64_t delta_total = 0;
  double last_absolute = 0.0;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    const JsonValue v = parse_json(line);
    const JsonValue* deltas = v.find("deltas");
    ASSERT_NE(deltas, nullptr) << "sample " << lines;
    if (const JsonValue* d = deltas->find("work.done")) {
      const double inc = d->as_number();
      EXPECT_GE(inc, 0.0) << "counters are monotone; deltas cannot go negative";
      delta_total += static_cast<std::uint64_t>(inc);
    }
    last_absolute = v.find("counters")->get_number("work.done");
  }
  ASSERT_GE(lines, 1u);
  // Deltas telescope back to the final cumulative value.
  EXPECT_EQ(delta_total, 7u);
  EXPECT_DOUBLE_EQ(last_absolute, 7.0);
  fs::remove(path);
}

// --- Instrumented code paths ----------------------------------------------

TEST(ObsIntegration, DispatchRecordsMetricsAndSpans) {
  const Instance inst = test_instance();
  const Placement p = Placement::everywhere(inst.num_tasks(), inst.num_machines());
  const Realization r = realize(inst, NoiseModel::kUniform, 5);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);

  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  {
    obs::ObservabilityScope scope(&registry, &tracer);
    (void)dispatch_online(inst, p, r, priority);
  }
  EXPECT_EQ(registry.counter("sim.dispatch.calls").value(), 1u);
  EXPECT_EQ(registry.counter("sim.dispatch.tasks").value(), inst.num_tasks());
  EXPECT_EQ(registry.histogram("sim.dispatch.machine_idle_time").summary().count,
            inst.num_machines());
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.events()[0].name, "dispatch_online");
}

// dispatch_online is the drain mode of serve_stream's loop, but each
// caller publishes only its own telemetry: an offline run records one
// dispatch_online span (no nested serve_stream span), sim.dispatch.* and
// nothing under serve.*; a drain-mode stream records the reverse.
TEST(ObsIntegration, OfflineAndStreamingDispatchKeepSeparateTelemetry) {
  const Instance inst = test_instance();
  const Placement p = Placement::everywhere(inst.num_tasks(), inst.num_machines());
  const Realization r = realize(inst, NoiseModel::kUniform, 5);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  const auto names_with_prefix = [](const obs::MetricsSnapshot& snap,
                                    const std::string& prefix) {
    std::size_t count = 0;
    for (const auto& [name, value] : snap.counters) count += name.rfind(prefix, 0) == 0;
    for (const auto& [name, value] : snap.gauges) count += name.rfind(prefix, 0) == 0;
    for (const auto& [name, value] : snap.histograms) count += name.rfind(prefix, 0) == 0;
    return count;
  };

  obs::MetricsRegistry offline_registry;
  obs::Tracer offline_tracer;
  {
    obs::ObservabilityScope scope(&offline_registry, &offline_tracer);
    (void)dispatch_online(inst, p, r, priority);
  }
  const obs::MetricsSnapshot offline = offline_registry.snapshot();
  EXPECT_EQ(offline.counter_or("sim.dispatch.calls"), 1u);
  EXPECT_EQ(names_with_prefix(offline, "serve."), 0u);
  ASSERT_EQ(offline_tracer.size(), 1u);
  EXPECT_EQ(offline_tracer.events()[0].name, "dispatch_online");

  obs::MetricsRegistry stream_registry;
  obs::Tracer stream_tracer;
  {
    obs::ObservabilityScope scope(&stream_registry, &stream_tracer);
    const std::vector<Time> arrivals(inst.num_tasks(), 0.0);
    (void)serve_stream(inst, p, r, priority, arrivals);
  }
  const obs::MetricsSnapshot stream = stream_registry.snapshot();
  EXPECT_EQ(stream.counter_or("serve.stream.calls"), 1u);
  EXPECT_EQ(names_with_prefix(stream, "sim.dispatch."), 0u);
  ASSERT_EQ(stream_tracer.size(), 1u);
  EXPECT_EQ(stream_tracer.events()[0].name, "serve_stream");
}

TEST(ObsIntegration, ThreadPoolRecordsQueueAndTaskMetrics) {
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) pool.submit([] {});
    pool.wait_idle();
  }
  EXPECT_EQ(registry.counter("pool.tasks.submitted").value(), 20u);
  EXPECT_EQ(registry.counter("pool.tasks.completed").value(), 20u);
  EXPECT_EQ(registry.histogram("pool.task.run_seconds").summary().count, 20u);
  EXPECT_EQ(registry.histogram("pool.task.wait_seconds").summary().count, 20u);
}

// Satellite: pool.queue_depth.max must pin the true peak even though the
// last-write-wins pool.queue_depth gauge may end anywhere. Two blocked
// workers guarantee the next 10 submissions stack up to a depth of
// exactly 10.
TEST(ObsIntegration, QueueDepthMaxGaugePinsPeak) {
  obs::MetricsRegistry registry;
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    ThreadPool pool(2);
    std::promise<void> release;
    std::shared_future<void> gate(release.get_future());
    std::atomic<int> started{0};
    for (int i = 0; i < 2; ++i) {
      pool.submit([&started, gate] {
        started.fetch_add(1);
        gate.wait();
      });
    }
    // Both workers are now off the queue and parked; the queue is empty.
    while (started.load() < 2) std::this_thread::yield();
    for (int i = 0; i < 10; ++i) pool.submit([] {});
    release.set_value();
    pool.wait_idle();
  }
  EXPECT_DOUBLE_EQ(registry.gauge("pool.queue_depth.max").value(), 10.0);
}

TEST(ObsIntegration, SweepRecordsCellsAndRate) {
  obs::MetricsRegistry registry;
  const auto grid = make_grid({2}, {1.5}, {1, 2, 3, 4});
  {
    obs::ObservabilityScope scope(&registry, nullptr);
    ThreadPool pool(2);
    run_sweep_parallel(pool, grid, [](const SweepCell&) {});
  }
  EXPECT_EQ(registry.counter("sweep.cells_done").value(), grid.size());
  EXPECT_EQ(registry.histogram("sweep.cell_seconds").summary().count, grid.size());
  EXPECT_GT(registry.gauge("sweep.cells_per_sec").value(), 0.0);
}

TEST(ObsIntegration, ReportEmbedsMetricsSnapshot) {
  obs::MetricsRegistry registry;
  registry.counter("sim.dispatch.calls").add(3);
  registry.histogram("sweep.cell_seconds").observe(0.25);

  ExperimentReport report("obs-test", "metrics section");
  report.series("data", {"x", "y"}).add_row({1.0, 2.0});
  EXPECT_FALSE(report.metrics().has_value());
  report.attach_metrics(registry.snapshot());
  ASSERT_TRUE(report.metrics().has_value());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("sim.dispatch.calls"), std::string::npos);

  std::ostringstream csv;
  report.write_csv(csv);
  EXPECT_NE(csv.str().find("# metrics"), std::string::npos);
  EXPECT_NE(csv.str().find("sweep.cell_seconds"), std::string::npos);
}

// --- Determinism differential (ARCHITECTURE.md §5) -------------------------

// Every dispatcher must produce bit-identical schedules whether or not
// observability sinks are attached.

template <typename Fn>
auto with_obs(Fn&& fn) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ObservabilityScope scope(&registry, &tracer);
  return fn();
}

void expect_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t j = 0; j < a.num_tasks(); ++j) {
    EXPECT_EQ(a.assignment.machine_of[j], b.assignment.machine_of[j]) << "task " << j;
    EXPECT_EQ(a.start[j], b.start[j]) << "task " << j;    // bitwise, not approx
    EXPECT_EQ(a.finish[j], b.finish[j]) << "task " << j;
  }
}

TEST(ObsDifferential, OnlineDispatchIsBitIdentical) {
  const Instance inst = test_instance(60, 6);
  const Placement p = Placement::everywhere(inst.num_tasks(), inst.num_machines());
  const Realization r = realize(inst, NoiseModel::kTwoPoint, 9);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  const DispatchResult plain = dispatch_online(inst, p, r, priority);
  const DispatchResult observed =
      with_obs([&] { return dispatch_online(inst, p, r, priority); });
  expect_identical(plain.schedule, observed.schedule);
  EXPECT_EQ(plain.trace.size(), observed.trace.size());
}

TEST(ObsDifferential, FailureDispatchIsBitIdentical) {
  const Instance inst = test_instance(30, 4);
  const Placement p = Placement::in_groups({0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
                                            0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
                                            0, 1, 0, 1, 0, 1, 0, 1, 0, 1},
                                           2, 4);
  const Realization r = realize(inst, NoiseModel::kUniform, 3);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  FailurePlan plan;
  plan.failures = {{0, 5.0}};
  plan.refetch_penalty = 2.0;
  const FailureDispatchResult plain =
      dispatch_with_failures(inst, p, r, priority, plan);
  const FailureDispatchResult observed = with_obs(
      [&] { return dispatch_with_failures(inst, p, r, priority, plan); });
  expect_identical(plain.schedule, observed.schedule);
  EXPECT_EQ(plain.restarts, observed.restarts);
  EXPECT_EQ(plain.refetches, observed.refetches);
}

TEST(ObsDifferential, TransferDispatchIsBitIdentical) {
  const Instance inst = test_instance(30, 4);
  const Placement p =
      Placement::in_groups({0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2,
                            3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1},
                           4, 4);
  const Realization r = realize(inst, NoiseModel::kUniform, 3);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  TransferModel model;
  model.bandwidth = 10.0;
  model.latency = 0.5;
  const TransferDispatchResult plain =
      dispatch_with_transfers(inst, p, r, priority, model);
  const TransferDispatchResult observed = with_obs(
      [&] { return dispatch_with_transfers(inst, p, r, priority, model); });
  expect_identical(plain.schedule, observed.schedule);
  EXPECT_EQ(plain.remote_runs, observed.remote_runs);
  EXPECT_EQ(plain.transfer_time, observed.transfer_time);
}

TEST(ObsDifferential, SpeculativeDispatchIsBitIdentical) {
  const Instance inst = test_instance(30, 4);
  const Placement p = Placement::everywhere(inst.num_tasks(), inst.num_machines());
  const Realization r = realize(inst, NoiseModel::kTwoPoint, 13);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  const SpeedProfile speeds(std::vector<double>{1.0, 1.0, 0.5, 2.0});
  SpeculationPolicy policy;
  const SpeculativeResult plain =
      dispatch_speculative(inst, p, r, priority, speeds, policy);
  const SpeculativeResult observed = with_obs(
      [&] { return dispatch_speculative(inst, p, r, priority, speeds, policy); });
  expect_identical(plain.schedule, observed.schedule);
  EXPECT_EQ(plain.duplicates_launched, observed.duplicates_launched);
  EXPECT_EQ(plain.wasted_time, observed.wasted_time);
}

TEST(ObsDifferential, RatioExperimentSeriesAreBitIdentical) {
  const Instance inst = test_instance(16, 4);
  const TwoPhaseStrategy strategy = make_ls_group(2);
  RatioExperimentConfig config;
  config.exact_node_budget = 50'000;

  auto run_experiment = [&] {
    ExperimentReport report("obs-diff", "ratio sweep");
    Series& series = report.series("ratios", {"seed", "ratio"});
    const RatioAggregate agg =
        measure_ratio_batch(strategy, inst, NoiseModel::kUniform, 8, 21, config);
    series.add_row({static_cast<double>(agg.ratios.count()), agg.ratios.mean()});
    series.add_row({agg.ratios.min(), agg.ratios.max()});
    return report.to_json();
  };

  const std::string plain = run_experiment();
  const std::string observed = with_obs(run_experiment);
  EXPECT_EQ(plain, observed);
}

TEST(ObsDifferential, ParallelSweepResultsAreBitIdentical) {
  const Instance inst = test_instance(24, 4);
  const Placement p = Placement::everywhere(inst.num_tasks(), inst.num_machines());
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  std::vector<std::uint64_t> seeds(32);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = i + 1;
  const auto grid = make_grid({inst.num_machines()}, {inst.alpha()}, seeds);

  auto sweep = [&](std::vector<double>& out) {
    ThreadPool pool(4);
    run_sweep_parallel(pool, grid, [&](const SweepCell& cell) {
      const Realization r = realize(inst, NoiseModel::kUniform, cell.seed);
      out[cell.index] =
          dispatch_online(inst, p, r, priority).schedule.makespan();
    });
  };

  std::vector<double> plain(grid.size(), -1.0);
  sweep(plain);
  std::vector<double> observed(grid.size(), -1.0);
  with_obs([&] {
    sweep(observed);
    return 0;
  });
  EXPECT_EQ(plain, observed);
}

// --- Multi-threaded stress (TSan target) ----------------------------------

TEST(ObsStress, RegistrySurvivesParallelSweepHammering) {
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  constexpr std::size_t kCells = 512;
  std::vector<std::uint64_t> seeds(kCells);
  for (std::size_t i = 0; i < kCells; ++i) seeds[i] = i;
  const auto grid = make_grid({4}, {1.5}, seeds);

  {
    obs::ObservabilityScope scope(&registry, &tracer);
    ThreadPool pool(4);
    run_sweep_parallel(pool, grid, [&](const SweepCell& cell) {
      // Hammer every metric kind from every worker, including first-use
      // creation races on named metrics.
      registry.counter("stress.total").add(1);
      registry.counter("stress.shard." + std::to_string(cell.index % 8)).add(1);
      registry.gauge("stress.last_index").set(static_cast<double>(cell.index));
      registry.histogram("stress.value").observe(static_cast<double>(cell.index));
      tracer.instant("stress.cell", "test");
    });
  }

  EXPECT_EQ(registry.counter("stress.total").value(), kCells);
  std::uint64_t sharded = 0;
  for (int s = 0; s < 8; ++s) {
    sharded += registry.counter("stress.shard." + std::to_string(s)).value();
  }
  EXPECT_EQ(sharded, kCells);
  const obs::Histogram::Summary summary = registry.histogram("stress.value").summary();
  EXPECT_EQ(summary.count, kCells);
  EXPECT_DOUBLE_EQ(summary.min, 0.0);
  EXPECT_DOUBLE_EQ(summary.max, static_cast<double>(kCells - 1));
  // Instants from the bodies plus spans from sweep/pool instrumentation.
  EXPECT_GE(tracer.size(), kCells);
  // The sweep-layer counters agree with the body-level ones.
  EXPECT_EQ(registry.counter("sweep.cells_done").value(), kCells);
}

TEST(ObsStress, ConcurrentScopedTimersOnOneHistogram) {
  obs::MetricsRegistry registry;
  obs::Histogram& hist = registry.histogram("timed");
  std::vector<std::thread> threads;
  constexpr int kPerThread = 200;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) obs::ScopedTimer timer(&hist);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.summary().count, 4u * kPerThread);
}

}  // namespace
}  // namespace rdp
