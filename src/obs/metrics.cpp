#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <utility>
#include <stdexcept>

#include "io/json.hpp"

namespace rdp::obs {

namespace {

__extension__ typedef unsigned __int128 u128;

constexpr std::uint64_t kDigitMask = 0xffffffffULL;
/// Σx is held in base-2^32 digits whose digit 0 weighs 2^-1074, the
/// least significant bit of a subnormal, so every finite double is an
/// integer there; Σx² digit 0 weighs the square of that.
constexpr int kSumFrameExp = -1074;
constexpr int kSquareFrameExp = 2 * kSumFrameExp;
/// Digits that hold any Σx (resp. Σx²) of up to 2^64 finite doubles:
/// a term is below 2^(1024 + 1074) (resp. its square), the count below
/// 2^64.
constexpr std::size_t kSumLimbs = 68;
constexpr std::size_t kSquareLimbs = 134;

/// Adds v * 2^bit into base-2^32 limbs that carry lazily: no limb gets
/// 2^32 or more from one call.
void add_at(std::uint64_t* limbs, std::uint64_t v, unsigned bit) noexcept {
  const std::size_t at = bit / 32;
  const u128 w = static_cast<u128>(v) << (bit % 32);
  limbs[at] += static_cast<std::uint64_t>(w) & kDigitMask;
  limbs[at + 1] += static_cast<std::uint64_t>(w >> 32) & kDigitMask;
  limbs[at + 2] += static_cast<std::uint64_t>(w >> 64);
}

/// Leaves one digit per limb; the sizes above leave the top limbs room
/// for the last carry.
void carry(std::uint64_t* limbs, std::size_t size) noexcept {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint64_t t = limbs[i] + c;
    limbs[i] = t & kDigitMask;
    c = t >> 32;
  }
}

/// IEEE-754 order key: signed-integer order on keys is the numeric order
/// on non-NaN doubles, with -0.0 below +0.0.
std::int64_t order_key(std::uint64_t bits) noexcept {
  const auto key = static_cast<std::int64_t>(bits);
  return key < 0 ? key ^ std::numeric_limits<std::int64_t>::max() : key;
}

double from_order_key(std::int64_t key) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(
      key < 0 ? key ^ std::numeric_limits<std::int64_t>::max() : key));
}

/// A non-negative integer in base-2^32 digits, little-endian: the value
/// is the sum of d[i] * 2^(32 (base + i)) units of its frame. Fixed
/// capacity, so summary() allocates nothing.
struct Nat {
  static constexpr int kCap = 160;
  std::uint32_t d[kCap];
  int len = 0;   // d[len - 1] != 0 unless len == 0
  int base = 0;

  void trim() noexcept {
    while (len > 0 && d[len - 1] == 0) --len;
  }
  [[nodiscard]] int bits() const noexcept {
    return len == 0 ? 0 : 32 * (len - 1) + static_cast<int>(std::bit_width(d[len - 1]));
  }
  /// Re-expresses the value with digit 0 at `new_base` <= base.
  void lower_base(int new_base) noexcept {
    const int shift = base - new_base;
    if (len > 0 && shift > 0) {
      std::memmove(d + shift, d, sizeof(d[0]) * static_cast<std::size_t>(len));
      std::fill(d, d + shift, 0U);
      len += shift;
    }
    base = new_base;
  }
};

/// Brings two values to one base (the lower of the two; a zero takes
/// the other's).
void align(Nat& a, Nat& b) noexcept {
  if (a.len == 0) a.base = b.base;
  if (b.len == 0) b.base = a.base;
  const int base = std::min(a.base, b.base);
  a.lower_base(base);
  b.lower_base(base);
}

/// Compares two values of one base.
int compare(const Nat& a, const Nat& b) noexcept {
  if (a.len != b.len) return a.len < b.len ? -1 : 1;
  for (int i = a.len - 1; i >= 0; --i) {
    if (a.d[i] != b.d[i]) return a.d[i] < b.d[i] ? -1 : 1;
  }
  return 0;
}

/// a -= b, for a >= b of one base.
void subtract(Nat& a, const Nat& b) noexcept {
  std::uint64_t borrow = 0;
  for (int i = 0; i < a.len; ++i) {
    const std::uint64_t sub = (i < b.len ? b.d[i] : 0U) + borrow;
    borrow = a.d[i] < sub ? 1U : 0U;
    a.d[i] = static_cast<std::uint32_t>(std::uint64_t{a.d[i]} + (borrow << 32) - sub);
  }
  a.trim();
}

Nat multiply(const Nat& a, const Nat& b) noexcept {
  Nat r;
  r.base = a.base + b.base;
  if (a.len == 0 || b.len == 0) return r;
  r.len = a.len + b.len;
  std::fill(r.d, r.d + r.len, 0U);
  for (int i = 0; i < a.len; ++i) {
    std::uint64_t c = 0;
    for (int j = 0; j < b.len; ++j) {
      const std::uint64_t t = std::uint64_t{a.d[i]} * b.d[j] + r.d[i + j] + c;
      r.d[i + j] = static_cast<std::uint32_t>(t);
      c = t >> 32;
    }
    r.d[i + b.len] = static_cast<std::uint32_t>(c);
  }
  r.trim();
  return r;
}

void multiply_small(Nat& a, std::uint64_t m) noexcept {
  u128 c = 0;
  for (int i = 0; i < a.len; ++i) {
    const u128 t = static_cast<u128>(a.d[i]) * m + c;
    a.d[i] = static_cast<std::uint32_t>(t);
    c = t >> 32;
  }
  for (; c != 0; c >>= 32) a.d[a.len++] = static_cast<std::uint32_t>(c);
}

/// a = floor(a / divisor), after appending enough zero digits below
/// digit 0 that the quotient keeps at least `quotient_bits` bits.
/// Returns whether the division left a remainder.
bool divide(Nat& a, std::uint64_t divisor, int quotient_bits) noexcept {
  const int wanted = quotient_bits + static_cast<int>(std::bit_width(divisor));
  a.lower_base(a.base - std::max(0, (wanted - a.bits() + 31) / 32));
  if (a.len == 0) return false;
  // Two digits per step: (rem, d[i], d[i - 1]) / divisor with rem <
  // divisor, so each quotient fits 64 bits.
  std::uint64_t rem = 0;
  int i = a.len - 1;
  if (i % 2 == 0) {
    rem = a.d[i] % divisor;
    a.d[i] = static_cast<std::uint32_t>(a.d[i] / divisor);
    --i;
  }
  for (; i > 0; i -= 2) {
    const u128 cur = (static_cast<u128>(rem) << 64) |
                     (std::uint64_t{a.d[i]} << 32) | a.d[i - 1];
    const auto q = static_cast<std::uint64_t>(cur / divisor);
    rem = static_cast<std::uint64_t>(cur - static_cast<u128>(q) * divisor);
    a.d[i] = static_cast<std::uint32_t>(q >> 32);
    a.d[i - 1] = static_cast<std::uint32_t>(q);
  }
  a.trim();
  return rem != 0;
}

/// The value (times 2^frame_exp) rounded once to the nearest double;
/// `sticky` says that a nonzero remainder lies below the last digit.
double to_double(const Nat& a, int frame_exp, bool sticky) noexcept {
  if (a.len == 0) return 0.0;
  const int top = a.len - 1;
  u128 head = 0;  // digits top, top - 1, top - 2
  for (int i = top; i > top - 3; --i) head = (head << 32) | (i >= 0 ? a.d[i] : 0U);
  const int lead = std::countl_zero(static_cast<std::uint64_t>(head >> 64));
  head <<= lead;
  auto top64 = static_cast<std::uint64_t>(head >> 64);
  bool rest = sticky || static_cast<std::uint64_t>(head) != 0;
  for (int i = top - 3; i >= 0 && !rest; --i) rest = a.d[i] != 0;
  // Eleven bits lie below the 53 kept, so a sticky bit at the bottom
  // makes the one conversion round as the full value would.
  if (rest) top64 |= 1;
  return std::ldexp(static_cast<double>(top64),
                    frame_exp + 32 * (a.base + top - 2) + 64 - lead);
}

/// One exact sum assembled by summary(): lazily carried base-2^32 limbs
/// that are zeroed only over the range [lo, hi) the sum touches.
template <std::size_t N>
struct Fold {
  std::uint64_t limbs[N];
  std::size_t lo = 0;
  std::size_t hi = 0;

  void touch(std::size_t from, std::size_t to) noexcept {
    if (lo == hi) {
      lo = hi = from;
    }
    if (from < lo) {
      std::fill(limbs + from, limbs + lo, 0U);
      lo = from;
    }
    if (to > hi) {
      std::fill(limbs + hi, limbs + to, 0U);
      hi = to;
    }
  }
  void add(std::uint64_t v, unsigned bit) noexcept {
    if (v == 0) return;
    touch(bit / 32, bit / 32 + 3);
    add_at(limbs, v, bit);
  }
  /// Adds lazily carried limbs [0, size) of the same frame.
  void add_limbs(const std::uint64_t* other, std::size_t size) noexcept {
    for (std::size_t i = 0; i < size; ++i) add(other[i], static_cast<unsigned>(32 * i));
  }
  [[nodiscard]] Nat to_nat() noexcept {
    Nat r;
    r.base = static_cast<int>(lo);
    std::uint64_t c = 0;
    for (std::size_t i = lo; i < hi || c != 0; ++i) {
      if (i == hi) limbs[hi++] = 0;
      const std::uint64_t t = limbs[i] + c;
      r.d[r.len++] = static_cast<std::uint32_t>(t);
      c = t >> 32;
    }
    r.trim();
    return r;
  }
};

/// The regular exponents [first, last) that the live bucket range
/// [lo, hi] reaches.
std::pair<std::size_t, std::size_t> live_exponents(std::size_t lo,
                                                   std::size_t hi) noexcept {
  using H = LocalHistogram;
  const std::size_t first = std::max(lo, H::kFirstRegular);
  const std::size_t last = std::min(hi, H::kOverflow - 1);
  if (first > last) return {0, 0};
  constexpr auto kSub = static_cast<std::size_t>(H::kSubBuckets);
  return {(first - H::kFirstRegular) / kSub, (last - H::kFirstRegular) / kSub + 1};
}

/// Where in the Σx frame the least significant bit of regular exponent
/// index i's significand sits: x = sig * 2^(e - 53) with frexp exponent
/// e = kMinExp + i, and 2^(e - 53) = 2^(e + 1021) units of 2^-1074.
unsigned significand_bit(std::size_t i) noexcept {
  return static_cast<unsigned>(LocalHistogram::kMinExp + 1021 + static_cast<int>(i));
}

}  // namespace

struct LocalHistogram::OutsideSums {
  /// Carry passes keep every limb below 2^62: one observation adds less
  /// than 2^33 to a limb.
  static constexpr std::uint64_t kCarryEvery = std::uint64_t{1} << 28;

  std::uint64_t positive[kSumLimbs] = {};  // Σx over x > 0
  std::uint64_t negative[kSumLimbs] = {};  // Σ|x| over x < 0
  std::uint64_t square[kSquareLimbs] = {};
  std::uint64_t pending = 0;  // additions since the last carry pass

  void carry_all() noexcept {
    carry(positive, kSumLimbs);
    carry(negative, kSumLimbs);
    carry(square, kSquareLimbs);
    pending = 0;
  }
};

LocalHistogram::LocalHistogram() : cells_(std::make_unique<Cells>()) {}
LocalHistogram::~LocalHistogram() = default;
LocalHistogram::LocalHistogram(LocalHistogram&&) noexcept = default;
LocalHistogram& LocalHistogram::operator=(LocalHistogram&&) noexcept = default;

void LocalHistogram::observe_outside(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto biased = static_cast<unsigned>(bits >> 52) & 0x7FFU;
  if (biased == 0x7FFU) {
    if ((bits & kMantissaMask) != 0) {
      saw_nan_ = true;
      return;
    }
    (x > 0.0 ? saw_pos_inf_ : saw_neg_inf_) = true;
    track_extremes(order_key(bits));
    return;
  }
  track_extremes(order_key(bits));
  if (!outside_) outside_ = std::make_unique<OutsideSums>();
  // x = sig * 2^-1074 for a subnormal, sig * 2^(biased - 1075) otherwise.
  const std::uint64_t sig =
      biased == 0 ? bits & kMantissaMask : (bits & kMantissaMask) | (kMantissaMask + 1);
  const unsigned at = biased == 0 ? 0U : biased - 1U;
  add_at((bits >> 63) != 0 ? outside_->negative : outside_->positive, sig, at);
  const u128 square = static_cast<u128>(sig) * sig;
  add_at(outside_->square, static_cast<std::uint64_t>(square), 2 * at);
  add_at(outside_->square, static_cast<std::uint64_t>(square >> 64), 2 * at + 64);
  if (++outside_->pending == OutsideSums::kCarryEvery) outside_->carry_all();
}

double LocalHistogram::min_value() const noexcept {
  return min_key_ <= max_key_ ? from_order_key(min_key_)
                              : std::numeric_limits<double>::quiet_NaN();
}

double LocalHistogram::max_value() const noexcept {
  return min_key_ <= max_key_ ? from_order_key(max_key_)
                              : std::numeric_limits<double>::quiet_NaN();
}

void LocalHistogram::fill_moments(Summary& s) const noexcept {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  if (saw_nan_ || saw_pos_inf_ || saw_neg_inf_) {
    const double inf = std::numeric_limits<double>::infinity();
    s.sum = saw_nan_ || (saw_pos_inf_ && saw_neg_inf_) ? kNaN
            : saw_pos_inf_                             ? inf
                                                       : -inf;
    s.mean = s.sum;
    s.stddev = count_ > 1 ? kNaN : 0.0;
    return;
  }
  Fold<kSumLimbs + 2> positive, negative;
  Fold<kSquareLimbs + 2> square;
  const auto [first, last] = live_exponents(lo_, hi_);
  for (std::size_t i = first; i < last; ++i) {
    const ExponentSums& e = cells_->sums[i];
    const unsigned at = significand_bit(i);
    positive.add(static_cast<std::uint64_t>(e.sig), at);
    positive.add(static_cast<std::uint64_t>(e.sig >> 64), at + 64);
    square.add(static_cast<std::uint64_t>(e.square), 2 * at);
    square.add(static_cast<std::uint64_t>(e.square >> 64), 2 * at + 64);
    square.add(e.square_carries, 2 * at + 128);
  }
  if (outside_) {
    positive.add_limbs(outside_->positive, kSumLimbs);
    negative.add_limbs(outside_->negative, kSumLimbs);
    square.add_limbs(outside_->square, kSquareLimbs);
  }
  Nat sum = positive.to_nat();
  Nat minus = negative.to_nat();
  align(sum, minus);
  const bool negative_sum = compare(sum, minus) < 0;
  if (negative_sum) std::swap(sum, minus);
  subtract(sum, minus);  // |Σx|
  const double sign = negative_sum ? -1.0 : 1.0;
  s.sum = sign * to_double(sum, kSumFrameExp, false);

  // 66 quotient bits leave 11 below the 53 kept and a bit for the
  // sticky remainder, so the one conversion rounds like the exact value.
  constexpr int kQuotientBits = 66;
  Nat mean = sum;
  const bool mean_inexact = divide(mean, count_, kQuotientBits);
  s.mean = sign * to_double(mean, kSumFrameExp, mean_inexact);

  if (count_ < 2) {
    s.stddev = 0.0;
    return;
  }
  // Sample variance (n Σx² - (Σx)²) / (n (n - 1)); the numerator is
  // exact, and non-negative by Cauchy-Schwarz. Below 2^32 samples the
  // divisor fits one word; beyond, floor(floor(x / n) / (n - 1)) is the
  // same quotient when the first step leaves the second no digits to add.
  Nat numerator = square.to_nat();
  multiply_small(numerator, count_);
  Nat squared_sum = multiply(sum, sum);
  align(numerator, squared_sum);
  subtract(numerator, squared_sum);
  bool inexact = false;
  if (count_ <= kDigitMask + 1) {
    inexact = divide(numerator, count_ * (count_ - 1), kQuotientBits);
  } else {
    inexact = divide(numerator, count_, kQuotientBits + 64);
    inexact = divide(numerator, count_ - 1, kQuotientBits) || inexact;
  }
  s.stddev = std::sqrt(to_double(numerator, kSquareFrameExp, inexact));
}

double LocalHistogram::bucket_midpoint(std::size_t index) noexcept {
  const std::size_t r = index - kFirstRegular;
  const int exp = kMinExp + static_cast<int>(r / kSubBuckets);
  const auto sub = static_cast<double>(r % kSubBuckets);
  return std::ldexp(0.5 + (sub + 0.5) / (2.0 * kSubBuckets), exp);
}

void LocalHistogram::quantiles(const double* targets, double* out,
                               std::size_t num_targets) const noexcept {
  const std::uint64_t total = count_;
  if (total == 0) {
    for (std::size_t i = 0; i < num_targets; ++i) out[i] = 0.0;
    return;
  }
  const double min = min_value();
  const double max = max_value();
  const std::uint64_t* buckets = cells_->buckets;
  std::uint64_t cumulative = 0;
  std::size_t bucket = lo_;
  for (std::size_t i = 0; i < num_targets; ++i) {
    auto rank = static_cast<std::uint64_t>(
        std::ceil(targets[i] * static_cast<double>(total)));
    if (rank < 1) rank = 1;
    if (rank > total) rank = total;
    while (bucket < hi_ && cumulative + buckets[bucket] < rank) {
      cumulative += buckets[bucket];
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
  if (count_ == 0) return s;
  s.count = count_;
  s.min = min_value();
  s.max = max_value();
  fill_moments(s);
  const double targets[] = {0.50, 0.90, 0.99};
  double estimates[3] = {0.0, 0.0, 0.0};
  quantiles(targets, estimates, 3);
  s.p50 = estimates[0];
  s.p90 = estimates[1];
  s.p99 = estimates[2];
  return s;
}

void LocalHistogram::merge(const LocalHistogram& other) noexcept {
  if (this == &other || other.count_ == 0) return;
  for (std::size_t b = other.lo_; b <= other.hi_; ++b) {
    cells_->buckets[b] += other.cells_->buckets[b];
  }
  lo_ = std::min(lo_, other.lo_);
  hi_ = std::max(hi_, other.hi_);
  const auto [first, last] = live_exponents(other.lo_, other.hi_);
  for (std::size_t i = first; i < last; ++i) {
    ExponentSums& mine = cells_->sums[i];
    const ExponentSums& theirs = other.cells_->sums[i];
    mine.sig += theirs.sig;
    mine.square += theirs.square;
    mine.square_carries += theirs.square_carries + (mine.square < theirs.square ? 1U : 0U);
  }
  count_ += other.count_;
  min_key_ = std::min(min_key_, other.min_key_);
  max_key_ = std::max(max_key_, other.max_key_);
  saw_nan_ = saw_nan_ || other.saw_nan_;
  saw_pos_inf_ = saw_pos_inf_ || other.saw_pos_inf_;
  saw_neg_inf_ = saw_neg_inf_ || other.saw_neg_inf_;
  if (other.outside_) {
    if (!outside_) outside_ = std::make_unique<OutsideSums>();
    for (std::size_t i = 0; i < kSumLimbs; ++i) {
      outside_->positive[i] += other.outside_->positive[i];
      outside_->negative[i] += other.outside_->negative[i];
    }
    for (std::size_t i = 0; i < kSquareLimbs; ++i) {
      outside_->square[i] += other.outside_->square[i];
    }
    outside_->carry_all();
  }
}

void LocalHistogram::reset() noexcept {
  const auto [first, last] = live_exponents(lo_, hi_);
  for (std::size_t i = first; i < last; ++i) cells_->sums[i] = ExponentSums{};
  for (std::size_t b = lo_; b <= hi_; ++b) cells_->buckets[b] = 0;
  if (outside_) *outside_ = OutsideSums{};
  count_ = 0;
  min_key_ = std::numeric_limits<std::int64_t>::max();
  max_key_ = std::numeric_limits<std::int64_t>::min();
  saw_nan_ = saw_pos_inf_ = saw_neg_inf_ = false;
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
