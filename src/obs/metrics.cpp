#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "io/json.hpp"

namespace rdp::obs {

LocalHistogram::LocalHistogram() : buckets_(new std::uint64_t[kNumBuckets]()) {}

double LocalHistogram::bucket_midpoint(std::size_t index) noexcept {
  const std::size_t r = index - kFirstRegular;
  const int exp = kMinExp + static_cast<int>(r / kSubBuckets);
  const auto sub = static_cast<double>(r % kSubBuckets);
  return std::ldexp(0.5 + (sub + 0.5) / (2.0 * kSubBuckets), exp);
}

void LocalHistogram::quantiles(const double* targets, double* out,
                               std::size_t num_targets) const noexcept {
  std::uint64_t total = 0;
  for (std::size_t b = lo_; b <= hi_; ++b) total += buckets_[b];
  if (total == 0) {
    for (std::size_t i = 0; i < num_targets; ++i) out[i] = 0.0;
    return;
  }
  const double min = welford_.min();
  const double max = welford_.max();
  std::uint64_t cumulative = 0;
  std::size_t bucket = lo_;
  for (std::size_t i = 0; i < num_targets; ++i) {
    auto rank = static_cast<std::uint64_t>(
        std::ceil(targets[i] * static_cast<double>(total)));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    while (bucket < hi_ && cumulative + buckets_[bucket] < rank) {
      cumulative += buckets_[bucket];
      ++bucket;
    }
    double estimate;
    if (bucket < kFirstRegular) {
      estimate = min;  // non-positive / underflow: no log-linear midpoint
    } else if (bucket >= kOverflow) {
      estimate = max;
    } else {
      estimate = bucket_midpoint(bucket);
    }
    if (estimate < min) estimate = min;
    if (estimate > max) estimate = max;
    out[i] = estimate;
  }
}

LocalHistogram::Summary LocalHistogram::summary() const noexcept {
  Summary s;
  const double targets[] = {0.50, 0.90, 0.99};
  double estimates[3] = {0.0, 0.0, 0.0};
  s.count = welford_.count();
  s.mean = welford_.mean();
  s.stddev = welford_.stddev();
  s.min = welford_.count() ? welford_.min() : 0.0;
  s.max = welford_.count() ? welford_.max() : 0.0;
  s.sum = sum_ + sum_compensation_;
  quantiles(targets, estimates, 3);
  s.p50 = estimates[0];
  s.p90 = estimates[1];
  s.p99 = estimates[2];
  return s;
}

void LocalHistogram::merge(const LocalHistogram& other) noexcept {
  if (this == &other) return;
  for (std::size_t b = other.lo_; b <= other.hi_; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
  welford_.merge(other.welford_);
  // Two compensated sums combine into one by running Neumaier over the
  // other side's (sum, compensation) pair as if they were two samples:
  // the result keeps the error of both streams' totals to ~1 ulp.
  neumaier_add(sum_, sum_compensation_, other.sum_);
  neumaier_add(sum_, sum_compensation_, other.sum_compensation_);
}

void LocalHistogram::reset() noexcept {
  welford_ = Welford{};
  sum_ = 0.0;
  sum_compensation_ = 0.0;
  for (std::size_t b = lo_; b <= hi_; ++b) buckets_[b] = 0;
  lo_ = kNumBuckets;
  hi_ = 0;
}

double LocalHistogram::quantile(double q) const noexcept {
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double estimate = 0.0;
  quantiles(&q, &estimate, 1);
  return estimate;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard lock(mutex_);
  return histograms_[name];
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h.summary();
  return snap;
}

JsonValue histogram_summary_json(const Histogram::Summary& s) {
  JsonObject h;
  h["count"] = s.count;
  h["mean"] = s.mean;
  h["stddev"] = s.stddev;
  h["min"] = s.min;
  h["max"] = s.max;
  h["sum"] = s.sum;
  h["p50"] = s.p50;
  h["p90"] = s.p90;
  h["p99"] = s.p99;
  return JsonValue(std::move(h));
}

JsonValue metrics_snapshot_json(const MetricsSnapshot& snapshot) {
  JsonObject root;
  JsonObject counters_obj;
  for (const auto& [name, v] : snapshot.counters) counters_obj[name] = v;
  root["counters"] = counters_obj;
  JsonObject gauges_obj;
  for (const auto& [name, v] : snapshot.gauges) gauges_obj[name] = v;
  root["gauges"] = gauges_obj;
  JsonObject hists_obj;
  for (const auto& [name, s] : snapshot.histograms) {
    hists_obj[name] = histogram_summary_json(s);
  }
  root["histograms"] = hists_obj;
  return JsonValue(root);
}

std::string MetricsSnapshot::to_json(int indent) const {
  return metrics_snapshot_json(*this).dump(indent);
}

void MetricsRegistry::save_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MetricsRegistry::save_json: cannot open " + path);
  out << snapshot().to_json() << "\n";
  if (!out) {
    throw std::runtime_error("MetricsRegistry::save_json: write failed for " + path);
  }
}

}  // namespace rdp::obs
