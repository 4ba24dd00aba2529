// Tests for the batched, cached, warm-started certification engine
// (exact/certify.hpp): bracket/assignment properties against brute force,
// bitwise reproducibility of cache hits and parallel batches, dedup and
// counter accounting, LRU eviction, and concurrent access to one engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "brute_force.hpp"
#include "exact/certify.hpp"
#include "exact/certify_scale.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace rdp {
namespace {

std::vector<Time> random_times(Xoshiro256& rng, std::size_t n, double lo = 0.5,
                               double hi = 10.0) {
  std::vector<Time> p;
  p.reserve(n);
  for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, lo, hi));
  return p;
}

Time recomputed_makespan(const CertifiedCmax& result, std::span<const Time> p,
                         MachineId m) {
  std::vector<Time> loads(m, 0);
  for (std::size_t j = 0; j < p.size(); ++j) {
    loads[result.assignment.machine_of[j]] += p[j];
  }
  Time cmax = 0;
  for (const Time load : loads) cmax = std::max(cmax, load);
  return cmax;
}

// Bitwise equality, not value equality: the reproducibility contract is
// "the same bytes", which EXPECT_DOUBLE_EQ (4-ulp tolerance) would mask.
void expect_bitwise_equal(const CertifiedCmax& a, const CertifiedCmax& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lower),
            std::bit_cast<std::uint64_t>(b.lower));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.upper),
            std::bit_cast<std::uint64_t>(b.upper));
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.assignment.machine_of, b.assignment.machine_of);
}

// Property: on random tiny instances the engine's bracket contains the
// brute-force optimum, exactness collapses the bracket, and the returned
// assignment achieves exactly `upper`.
class CertifyProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CertifyProperty, BracketAssignmentAndExactness) {
  Xoshiro256 rng(GetParam());
  const std::size_t n = 5 + static_cast<std::size_t>(rng.next_below(6));  // 5..10
  const MachineId m = 2 + static_cast<MachineId>(rng.next_below(3));      // 2..4
  const std::vector<Time> p = random_times(rng, n);

  CertifyEngine engine;
  const CertifiedCmax c = engine.certify(p, m);
  EXPECT_LE(c.lower, c.upper + 1e-12);
  if (c.exact) {
    EXPECT_DOUBLE_EQ(c.lower, c.upper);
  }
  EXPECT_DOUBLE_EQ(recomputed_makespan(c, p, m), c.upper);

  const BruteForceResult bf = brute_force_cmax(p, m);
  EXPECT_LE(c.lower, bf.optimal + 1e-9);
  EXPECT_GE(c.upper, bf.optimal - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomTiny, CertifyProperty,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(CertifyCache, HitIsBitwiseIdenticalToCold) {
  Xoshiro256 rng(11);
  const std::vector<Time> p = random_times(rng, 12);
  CertifyEngine engine;
  const CertifiedCmax cold = engine.certify(p, 3);
  const CertifiedCmax hit = engine.certify(p, 3);
  expect_bitwise_equal(cold, hit);
  const CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(CertifyCache, PermutationSharesTheSolve) {
  Xoshiro256 rng(12);
  std::vector<Time> p = random_times(rng, 10);
  CertifyEngine engine;
  const CertifiedCmax original = engine.certify(p, 3);

  std::vector<Time> reversed(p.rbegin(), p.rend());
  const CertifiedCmax permuted = engine.certify(reversed, 3);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  // Same canonical solve; the upper bounds agree up to summation order
  // (per-machine loads are re-accumulated in the caller's index order).
  EXPECT_NEAR(permuted.upper, original.upper, 1e-12);
  // The assignment is un-permuted into the caller's index space.
  EXPECT_DOUBLE_EQ(recomputed_makespan(permuted, reversed, 3), permuted.upper);
}

TEST(CertifyCache, UniformRescalingSharesTheSolve) {
  Xoshiro256 rng(13);
  std::vector<Time> p = random_times(rng, 10);
  std::vector<Time> scaled = p;
  for (Time& v : scaled) v *= 4.0;  // power of two: exact in binary

  CertifyEngine engine;
  const CertifiedCmax base = engine.certify(p, 3);
  const CertifiedCmax big = engine.certify(scaled, 3);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_DOUBLE_EQ(big.upper, 4.0 * base.upper);
  EXPECT_DOUBLE_EQ(recomputed_makespan(big, scaled, 3), big.upper);
}

TEST(CertifyCache, BatchDedupsWithinTheBatch) {
  Xoshiro256 rng(14);
  const std::vector<Time> a = random_times(rng, 9);
  const std::vector<Time> b = random_times(rng, 9);
  const std::vector<Time> a_reversed(a.rbegin(), a.rend());

  // 5 requests, 2 distinct canonical instances (a == a_reversed, b).
  const std::vector<CertifyRequest> batch = {
      {a, 3}, {b, 3}, {a_reversed, 3}, {a, 3}, {b, 3}};
  CertifyEngine engine;
  const std::vector<CertifiedCmax> results = engine.certify_batch(batch);
  ASSERT_EQ(results.size(), 5u);
  const CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.size, 2u);
  expect_bitwise_equal(results[0], results[3]);
  expect_bitwise_equal(results[1], results[4]);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_DOUBLE_EQ(recomputed_makespan(results[i], batch[i].p, batch[i].m),
                     results[i].upper);
  }
}

TEST(CertifyCache, SameTimesDifferentMachineCountsAreDistinct) {
  Xoshiro256 rng(15);
  const std::vector<Time> p = random_times(rng, 8);
  CertifyEngine engine;
  (void)engine.certify(p, 2);
  (void)engine.certify(p, 3);
  EXPECT_EQ(engine.cache_stats().misses, 2u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
}

TEST(CertifyCache, LruEvictsBeyondCapacity) {
  Xoshiro256 rng(16);
  const std::vector<Time> a = random_times(rng, 8);
  const std::vector<Time> b = random_times(rng, 8);
  const std::vector<Time> c = random_times(rng, 8);

  CertifyEngine engine(/*cache_capacity=*/2);
  (void)engine.certify(a, 3);
  (void)engine.certify(b, 3);
  (void)engine.certify(c, 3);  // evicts a (least recently used)
  CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.capacity, 2u);

  (void)engine.certify(a, 3);  // must re-solve
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 0u);

  (void)engine.certify(a, 3);  // now cached again
  EXPECT_EQ(engine.cache_stats().hits, 1u);
}

TEST(CertifyCache, ZeroCapacityDisablesCaching) {
  Xoshiro256 rng(17);
  const std::vector<Time> p = random_times(rng, 8);
  CertifyEngine engine(/*cache_capacity=*/0);
  const CertifiedCmax first = engine.certify(p, 3);
  const CertifiedCmax second = engine.certify(p, 3);
  expect_bitwise_equal(first, second);  // still deterministic
  const CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.size, 0u);
}

TEST(CertifyCache, ClearDropsEntriesKeepsCounters) {
  Xoshiro256 rng(18);
  const std::vector<Time> p = random_times(rng, 8);
  CertifyEngine engine;
  (void)engine.certify(p, 3);
  (void)engine.certify(p, 3);
  engine.clear();
  CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  (void)engine.certify(p, 3);  // re-solve after clear
  EXPECT_EQ(engine.cache_stats().misses, 2u);
}

TEST(CertifyCache, TrivialInputsBypassTheCache) {
  CertifyEngine engine;
  const std::vector<Time> empty;
  const CertifiedCmax e = engine.certify(empty, 3);
  EXPECT_TRUE(e.exact);
  EXPECT_DOUBLE_EQ(e.upper, 0.0);

  const std::vector<Time> zeros(5, 0.0);
  const CertifiedCmax z = engine.certify(zeros, 2);
  EXPECT_DOUBLE_EQ(z.upper, 0.0);

  const CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(CertifyCache, ZeroMachinesThrows) {
  CertifyEngine engine;
  const std::vector<Time> p = {1.0, 2.0};
  EXPECT_THROW((void)engine.certify(p, 0), std::invalid_argument);
}

TEST(CertifyCache, NonFiniteTimesThrowOnEveryRoute) {
  // p[j] = 1 + (7j mod 11) with one bad entry: n = 5 and 40 route to
  // branch-and-bound, n = 600 past ptas_threshold to Hochbaum-Shmoys, and
  // m = 2 to the partition path. Each used to return a "proven" bracket
  // (or an unrelated error) instead of rejecting the input.
  const auto times = [](std::size_t n, Time bad) {
    std::vector<Time> p(n);
    for (std::size_t j = 0; j < n; ++j) p[j] = 1.0 + static_cast<double>(7 * j % 11);
    p[n / 2] = bad;
    return p;
  };
  const Time inf = std::numeric_limits<Time>::infinity();
  CertifyEngine engine;
  for (const Time bad : {std::nan(""), inf, -inf}) {
    for (const auto& [n, m] : {std::pair<std::size_t, MachineId>{5, 3}, {40, 3},
                               {600, 3}, {40, 2}}) {
      const std::vector<Time> p = times(n, bad);
      const std::vector<Time> good = times(n, 1.0);
      const std::vector<CertifyRequest> batch = {{good, m}, {p, m}};
      try {
        (void)engine.certify_batch(batch);
        ADD_FAILURE() << "n=" << n << " m=" << m << " bad=" << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("request 1"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("index " + std::to_string(n / 2)),
                  std::string::npos)
            << e.what();
      }
    }
  }
  EXPECT_EQ(engine.cache_stats().size, 0u);
  // Negative entries are not rejected here: they keep the direct-solve
  // path and whatever certified_cmax makes of them.
  const std::vector<Time> negative = {-1.0, -2.0, -0.5};
  EXPECT_NO_THROW((void)engine.certify(negative, 3));
}

// The engine before its canonical form went through order_by_time: ids
// sorted by `p[a] != p[b] ? p[a] > p[b] : a < b`, the canonical values
// solved cold (B&B, or HS past the threshold), then mapped back.
CertifiedCmax comparator_reference_certify(std::span<const Time> p, MachineId m,
                                           const CertifyOptions& options) {
  std::vector<TaskId> order(p.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return p[a] != p[b] ? p[a] > p[b] : a < b;
  });
  const Time scale = p[order.front()];
  std::vector<Time> values(p.size());
  for (std::size_t r = 0; r < p.size(); ++r) values[r] = p[order[r]] / scale;
  CertifiedCmax canon;
  if (options.ptas_threshold > 0 && p.size() > options.ptas_threshold) {
    canon = hs_certified_cmax(values, m, options.ptas_precision);
  } else {
    canon = certified_cmax(values, m, options.node_budget);
  }
  CertifiedCmax out;
  out.exact = canon.exact;
  out.backend = canon.backend;
  out.assignment = Assignment(p.size());
  for (std::size_t r = 0; r < p.size(); ++r) {
    out.assignment.machine_of[order[r]] = canon.assignment.machine_of[r];
  }
  out.upper = recomputed_makespan(out, p, m);
  out.lower = canon.exact ? out.upper : std::min(canon.lower * scale, out.upper);
  return out;
}

TEST(CertifyCache, MatchesComparatorCanonicalFormBitwise) {
  Xoshiro256 rng(31);
  CertifyOptions options;
  options.node_budget = 20'000;
  options.ptas_threshold = 32;
  for (int trial = 0; trial < 60; ++trial) {
    const bool hs = trial % 2 == 1;
    const std::size_t n = hs ? 33 + rng.next_below(300) : 4 + rng.next_below(20);
    const MachineId m = static_cast<MachineId>(2 + rng.next_below(4));
    std::vector<Time> p(n);
    for (Time& t : p) {
      // Heavy ties (integers), signed zeros among positives, or uniform.
      switch (trial % 3) {
        case 0: t = static_cast<double>(1 + rng.next_below(6)); break;
        case 1: t = rng.next_below(4) == 0 ? -0.0 : sample_uniform(rng, 0.5, 10.0); break;
        default: t = sample_uniform(rng, 0.5, 10.0);
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + " n=" + std::to_string(n));
    CertifyEngine engine(0);
    const CertifiedCmax got = engine.certify(p, m, options);
    const CertifiedCmax want = comparator_reference_certify(p, m, options);
    expect_bitwise_equal(got, want);
    EXPECT_EQ(got.backend, want.backend);
  }
}

// A fixed call sequence through a capacity-2 engine: permutations and
// power-of-two rescalings that must hit, a second machine count that must
// miss, evictions across the B&B (n = 20) and Hochbaum-Shmoys (n = 600,
// 5000) routes, and a batch that dedups, hits and warm-starts. Every
// certificate's bits and the counters after every call feed one FNV-1a
// hash, recorded against the engine before its keys were hashed once and
// moved, so a change to what hits, what is evicted or what is returned
// fails here.
TEST(CertifyCache, CountersAndLruUnchangedAcrossRoutes) {
  Xoshiro256 rng(2022);
  const std::vector<Time> p20 = random_times(rng, 20);
  const std::vector<Time> q20 = random_times(rng, 20);
  const std::vector<Time> p600 = random_times(rng, 600);
  const std::vector<Time> p5000 = random_times(rng, 5000);
  const auto permuted = [&rng](std::vector<Time> p) {
    for (std::size_t k = p.size() - 1; k > 0; --k) {
      std::swap(p[k], p[rng.next_below(k + 1)]);
    }
    return p;
  };
  const auto scaled = [](std::vector<Time> p, double factor) {
    for (Time& t : p) t *= factor;
    return p;
  };

  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (word >> (8 * b)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  CertifyEngine engine(2);
  const auto record = [&](const std::vector<CertifiedCmax>& results) {
    for (const CertifiedCmax& c : results) {
      add(std::bit_cast<std::uint64_t>(c.lower));
      add(std::bit_cast<std::uint64_t>(c.upper));
      add(c.exact ? 1 : 0);
      add(static_cast<std::uint64_t>(c.backend));
      for (const MachineId i : c.assignment.machine_of) add(i);
    }
    const CertifyCacheStats stats = engine.cache_stats();
    for (const std::uint64_t v : {stats.hits, stats.misses, stats.evictions,
                                  static_cast<std::uint64_t>(stats.size)}) {
      add(v);
    }
  };
  const auto certify = [&](const std::vector<Time>& p, MachineId m) {
    record({engine.certify(p, m)});
  };

  certify(p20, 3);                    // miss
  certify(permuted(p20), 3);          // hit
  certify(scaled(p20, 4.0), 3);       // hit
  certify(p20, 4);                    // miss: m is part of the key
  certify(p600, 8);                   // miss (HS), evicts (p20, 3)
  certify(p20, 3);                    // miss, evicts (p20, 4)
  certify(permuted(p600), 8);         // hit, refreshes (p600, 8)
  certify(p5000, 16);                 // miss (HS), evicts (p20, 3)
  {
    const std::vector<Time> half600 = scaled(p600, 0.5);
    const std::vector<Time> shuffled5000 = permuted(p5000);
    const std::vector<Time> shuffled20 = permuted(p20);
    const std::vector<CertifyRequest> batch = {
        {half600, 8}, {shuffled5000, 16}, {p20, 4}, {shuffled20, 4}, {q20, 4}};
    record(engine.certify_batch(batch));  // 2 hits, 1 dedup hit, 2 warm misses
  }
  certify(p600, 8);                   // miss: evicted by the batch
  certify(q20, 4);                    // hit
  {
    // The batch's two misses evict its own hit before it is published,
    // so publishing re-inserts it, which evicts the first miss again.
    const std::vector<CertifyRequest> batch = {{p20, 3}, {p5000, 16}, {p600, 8}};
    record(engine.certify_batch(batch));
  }
  certify(p20, 3);                    // miss

  const CertifyCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(stats.misses, 11u);
  EXPECT_EQ(stats.evictions, 10u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(hash, 0x27d8485880e0acc2ULL);
}

TEST(CertifyCache, WarmStartDisabledStillCorrect) {
  Xoshiro256 rng(19);
  std::vector<CertifyRequest> batch;
  std::vector<std::vector<Time>> storage;
  for (int i = 0; i < 6; ++i) storage.push_back(random_times(rng, 9));
  for (const auto& p : storage) batch.push_back({p, 3});

  CertifyEngine warm_engine;
  CertifyEngine cold_engine;
  CertifyOptions no_warm;
  no_warm.warm_start = false;
  const auto warm = warm_engine.certify_batch(batch);
  const auto cold = cold_engine.certify_batch(batch, no_warm);
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    // Warm starting prunes the search, never the answer (up to the
    // branch-and-bound incumbent tolerance of 1e-12).
    EXPECT_NEAR(warm[i].upper, cold[i].upper, 1e-9);
    EXPECT_EQ(warm[i].exact, cold[i].exact);
  }
}

// The headline determinism contract: a parallel batch returns exactly the
// bytes the sequential batch returns, per index, on a fresh engine.
TEST(CertifyParallel, BatchBitwiseIdenticalAcrossThreadCounts) {
  Xoshiro256 rng(20);
  std::vector<std::vector<Time>> storage;
  for (int i = 0; i < 24; ++i) storage.push_back(random_times(rng, 10));
  // Sprinkle in duplicates and permutations so dedup paths engage.
  storage.push_back(storage[0]);
  storage.push_back({storage[1].rbegin(), storage[1].rend()});
  std::vector<CertifyRequest> batch;
  for (const auto& p : storage) batch.push_back({p, 4});

  CertifyEngine sequential_engine;
  const auto sequential = sequential_engine.certify_batch(batch);

  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    CertifyOptions options;
    options.pool = &pool;
    CertifyEngine parallel_engine;
    const auto parallel = parallel_engine.certify_batch(batch, options);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      expect_bitwise_equal(parallel[i], sequential[i]);
    }
  }
}

// Exercised under -DRDP_SANITIZE=thread (`ctest -L tsan`): several
// threads hammer one engine with overlapping batches while each batch
// also fans out over a shared pool. Which thread's solve lands in the
// cache is racy by design (first writer wins), so the assertions are
// semantic -- every result is a valid, near-reference bracket -- rather
// than bitwise.
TEST(CertifyParallel, ConcurrentBatchesOnSharedEngine) {
  Xoshiro256 rng(21);
  std::vector<std::vector<Time>> storage;
  for (int i = 0; i < 12; ++i) storage.push_back(random_times(rng, 9));

  CertifyEngine reference_engine;
  std::vector<CertifiedCmax> reference;
  for (const auto& p : storage) {
    reference.push_back(reference_engine.certify(p, 3));
  }

  CertifyEngine shared(/*cache_capacity=*/8);  // small: forces evictions too
  ThreadPool pool(4);
  std::vector<std::thread> workers;
  std::vector<std::vector<CertifyRequest>> batches(4);
  std::vector<std::vector<CertifiedCmax>> outputs(4);
  for (std::size_t w = 0; w < 4; ++w) {
    // Each worker starts at a different offset so batches overlap.
    for (std::size_t i = 0; i < storage.size(); ++i) {
      batches[w].push_back({storage[(i + w * 3) % storage.size()], 3});
    }
    workers.emplace_back([&, w] {
      CertifyOptions options;
      options.pool = &pool;
      outputs[w] = shared.certify_batch(batches[w], options);
    });
  }
  for (std::thread& t : workers) t.join();

  for (std::size_t w = 0; w < 4; ++w) {
    ASSERT_EQ(outputs[w].size(), storage.size());
    for (std::size_t i = 0; i < storage.size(); ++i) {
      const std::size_t src = (i + w * 3) % storage.size();
      const CertifiedCmax& got = outputs[w][i];
      EXPECT_LE(got.lower, got.upper + 1e-12);
      EXPECT_DOUBLE_EQ(recomputed_makespan(got, storage[src], 3), got.upper);
      EXPECT_NEAR(got.upper, reference[src].upper, 1e-9);
    }
  }
}

TEST(CertifyBatchFree, RoutesThroughDefaultEngine) {
  Xoshiro256 rng(22);
  const std::vector<Time> p = random_times(rng, 8);
  const CertifyRequest request{p, 3};
  const auto results = certified_cmax_batch({&request, 1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_DOUBLE_EQ(recomputed_makespan(results[0], p, 3), results[0].upper);
}

}  // namespace
}  // namespace rdp
