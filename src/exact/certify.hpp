// Batched, cached, warm-started certification of P||Cmax optima -- the
// engine behind every competitive-ratio denominator. Experiments certify
// the same (or near-identical) processing-time multisets over and over:
// different strategies replay the same realizations, memory experiments
// re-certify the (fixed) size vector each trial, and realizations of one
// instance collide after canonicalization. The engine exploits that:
//
//  - every vector is canonicalized (sorted non-increasing, scale-divided
//    by the largest entry) so permutations and uniform rescalings of one
//    multiset share a single solve;
//  - solved canonical instances live in a thread-safe, LRU-bounded memo
//    cache (hit/miss counters surface through obs::MetricsRegistry as
//    exp.certify.cache_hits / exp.certify.cache_misses);
//  - a batch call dedups its requests, solves the unique remainder --
//    optionally in parallel on a ThreadPool -- and warm-starts each solve
//    from the batch's first result of the same shape (see
//    docs/PERFORMANCE.md for the determinism contract).
//
// Results are deterministic per request vector and bitwise reproducible:
// a cache hit returns exactly the bytes the original solve produced, and
// batch results are independent of thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "exact/optimal.hpp"

namespace rdp {

class ThreadPool;

/// Tuning for certify calls. `pool` and `warm_start` only affect batch
/// calls; single certifies are always solved inline.
struct CertifyOptions {
  /// Branch-and-bound node budget per solve (0 = analytic bracket only).
  std::uint64_t node_budget = 5'000'000;
  /// When non-null, unique cache misses of a batch are solved on this
  /// pool (results are per-index deterministic regardless of threads).
  ThreadPool* pool = nullptr;
  /// Seed each batch solve with the batch's first same-shape result.
  bool warm_start = true;
  /// Instances with more than this many tasks route to the
  /// Hochbaum-Shmoys dual-approximation backend (exact/certify_scale.hpp)
  /// instead of branch-and-bound; results carry backend ==
  /// CertifyBackend::kPtas. 0 disables PTAS routing entirely.
  std::size_t ptas_threshold = 512;
  /// PTAS guarantee parameter: the large-n bracket targets
  /// upper <= (1 + 1/ptas_precision) * lower.
  unsigned ptas_precision = 8;
};

/// Point-in-time cache statistics.
struct CertifyCacheStats {
  std::uint64_t hits = 0;        ///< requests served without a new solve
  std::uint64_t misses = 0;      ///< solves performed
  std::uint64_t evictions = 0;   ///< entries dropped by the LRU bound
  std::size_t size = 0;          ///< entries currently cached
  std::size_t capacity = 0;      ///< LRU bound (0 = caching disabled)

  [[nodiscard]] double hit_rate() const noexcept {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// One certification request: processing times and machine count. The
/// span must stay valid for the duration of the call.
struct CertifyRequest {
  std::span<const Time> p;
  MachineId m = 1;
};

/// The certification engine: canonicalizing memo cache + batch solver.
/// All public methods are thread-safe; concurrent batches share the cache.
class CertifyEngine {
 public:
  /// `cache_capacity` bounds the LRU cache (0 disables caching; every
  /// request is then a fresh solve).
  explicit CertifyEngine(std::size_t cache_capacity = kDefaultCacheCapacity);
  ~CertifyEngine();

  CertifyEngine(const CertifyEngine&) = delete;
  CertifyEngine& operator=(const CertifyEngine&) = delete;

  /// Certifies one instance through the cache. Equivalent to a 1-element
  /// certify_batch.
  [[nodiscard]] CertifiedCmax certify(std::span<const Time> p, MachineId m,
                                      const CertifyOptions& options = {});

  /// Certifies a batch: canonicalizes, dedups against the cache and
  /// within the batch, solves the unique remainder (in parallel when
  /// `options.pool` is set), and returns one result per request, in
  /// request order. Throws std::invalid_argument on m == 0 or a NaN/inf time.
  [[nodiscard]] std::vector<CertifiedCmax> certify_batch(
      std::span<const CertifyRequest> batch, const CertifyOptions& options = {});

  [[nodiscard]] CertifyCacheStats cache_stats() const;

  /// Drops every cached entry (counters are kept).
  void clear();

  static constexpr std::size_t kDefaultCacheCapacity = 4096;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide engine used when an experiment config does not carry
/// its own (lazily constructed, default capacity).
[[nodiscard]] CertifyEngine& default_certify_engine();

/// Batch certification through the process-default engine.
[[nodiscard]] std::vector<CertifiedCmax> certified_cmax_batch(
    std::span<const CertifyRequest> batch, const CertifyOptions& options = {});

}  // namespace rdp
