// Tests for the large-n certification stack: the FirstFitTree segment
// tree (exact/first_fit_tree.hpp), the ordered FFD hot path and MULTIFIT
// certified lower bound (exact/dual_approx.hpp), the Hochbaum-Shmoys
// dual-approximation bracket (exact/certify_scale.hpp), and the
// CertifyEngine routing that selects it past the size threshold
// (exact/certify.hpp). Soundness properties compare against brute force
// and exact branch-and-bound; determinism is pinned bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "algo/lpt.hpp"
#include "exact/branch_and_bound.hpp"
#include "brute_force.hpp"
#include "exact/certify.hpp"
#include "exact/certify_scale.hpp"
#include "exact/dual_approx.hpp"
#include "exact/first_fit_tree.hpp"
#include "exact/optimal.hpp"
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

Time recomputed_makespan(const Assignment& assignment, std::span<const Time> p,
                         MachineId m) {
  std::vector<Time> loads(m, 0);
  for (std::size_t j = 0; j < p.size(); ++j) {
    loads[assignment.machine_of[j]] += p[j];
  }
  Time cmax = 0;
  for (const Time load : loads) cmax = std::max(cmax, load);
  return cmax;
}

// Reference first-fit: the linear scan the tree must agree with, using
// the identical floating-point test.
MachineId linear_first_fit(const std::vector<Time>& loads, Time item, Time cap) {
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (loads[i] + item <= cap) return static_cast<MachineId>(i);
  }
  return kNoMachine;
}

// ---------------------------------------------------------------------
// FirstFitTree: bit-identical to the linear scan on random streams.

TEST(FirstFitTree, MatchesLinearScanOnRandomStreams) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 50; ++round) {
    const MachineId m = 1 + static_cast<MachineId>(rng.next_below(9));
    const Time cap = sample_uniform(rng, 5.0, 30.0);
    FirstFitTree tree(m);
    std::vector<Time> loads(m, 0);
    for (int step = 0; step < 200; ++step) {
      const Time item = sample_uniform(rng, 0.1, 12.0);
      const MachineId expected = linear_first_fit(loads, item, cap);
      ASSERT_EQ(tree.find_first_fit(item, cap), expected);
      ASSERT_EQ(tree.place(item, cap), expected);
      if (expected != kNoMachine) loads[expected] += item;
      for (MachineId i = 0; i < m; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(tree.load(i)),
                  std::bit_cast<std::uint64_t>(loads[i]));
      }
    }
  }
}

TEST(FirstFitTree, ResetRewindsAndPaddingNeverWins) {
  FirstFitTree tree(3);  // padded to 4 leaves internally
  EXPECT_EQ(tree.place(1.0, 1.0), 0);
  EXPECT_EQ(tree.place(1.0, 1.0), 1);
  EXPECT_EQ(tree.place(1.0, 1.0), 2);
  // All three real bins full; the padding leaf must not be offered.
  EXPECT_EQ(tree.place(1.0, 1.0), kNoMachine);
  tree.reset(3);
  EXPECT_EQ(tree.min_load(), 0.0);
  EXPECT_EQ(tree.place(1.0, 1.0), 0);
}

// ---------------------------------------------------------------------
// ffd_fits / ffd_fits_ordered: parity and the zero-capacity contract.

TEST(FfdFits, OrderedPathMatchesLinearPath) {
  Xoshiro256 rng(11);
  FirstFitTree bins;
  for (int round = 0; round < 100; ++round) {
    const std::size_t n = 1 + rng.next_below(40);
    const MachineId m = 1 + static_cast<MachineId>(rng.next_below(6));
    const std::vector<Time> p = random_times(rng, n);
    const Time cap = sample_uniform(rng, 5.0, 40.0);

    std::vector<TaskId> order(n);
    for (std::size_t j = 0; j < n; ++j) order[j] = static_cast<TaskId>(j);
    std::stable_sort(order.begin(), order.end(),
                     [&](TaskId a, TaskId b) { return p[a] > p[b]; });

    Assignment linear, treed;
    const bool fits_linear = ffd_fits(p, m, cap, &linear);
    const bool fits_tree = ffd_fits_ordered(p, order, m, cap, bins, &treed);
    ASSERT_EQ(fits_linear, fits_tree);
    if (fits_linear) {
      ASSERT_EQ(linear.machine_of, treed.machine_of);
    }
  }
}

TEST(FfdFits, ZeroSizeTasksPackIntoZeroCapacity) {
  const std::vector<Time> zeros(5, 0.0);
  Assignment out;
  EXPECT_TRUE(ffd_fits(zeros, 2, 0.0, &out));
  EXPECT_EQ(out.machine_of.size(), zeros.size());
  // Any positive task correctly fails at cap == 0: the slack is relative
  // and vanishes there (kFfdRelativeSlack contract).
  const std::vector<Time> tiny = {1e-300};
  EXPECT_FALSE(ffd_fits(tiny, 2, 0.0));
}

TEST(FfdFits, RejectsInvalidCapacity) {
  const std::vector<Time> p = {1.0};
  EXPECT_THROW((void)ffd_fits(p, 1, -1.0), std::invalid_argument);
  EXPECT_THROW((void)ffd_fits(p, 1, std::numeric_limits<Time>::quiet_NaN()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------
// MULTIFIT: guarantee and the certified lower bound, vs brute force.

TEST(Multifit, CertifiedLowerBracketsBruteForceOptimum) {
  Xoshiro256 rng(23);
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 3 + rng.next_below(8);
    const MachineId m = 2 + static_cast<MachineId>(rng.next_below(3));
    const std::vector<Time> p = random_times(rng, n);
    const BruteForceResult opt = brute_force_cmax(p, m);
    const MultifitResult mf = multifit_cmax(p, m);

    const double tol = 1e-9 * opt.optimal;
    EXPECT_LE(mf.certified_lower, opt.optimal + tol);
    EXPECT_LE(mf.certified_lower, mf.makespan + tol);
    EXPECT_LE(mf.makespan, multifit_guarantee() * opt.optimal * (1 + 1e-9));
    EXPECT_EQ(recomputed_makespan(mf.assignment, p, m), mf.makespan);
  }
}

// ---------------------------------------------------------------------
// Hochbaum-Shmoys bracket: soundness against exact B&B, guarantee, and
// schedule completeness.

TEST(HsCertify, SoundnessAgainstBranchAndBound200Seeds) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng(1000 + seed);
    const std::size_t n = 3 + rng.next_below(10);
    const MachineId m = 2 + static_cast<MachineId>(rng.next_below(3));
    const std::vector<Time> p = random_times(rng, n, 0.1, 10.0);
    const unsigned k = 3 + static_cast<unsigned>(seed % 3);

    const CertifiedCmax bnb = certified_cmax(p, m, 2'000'000);
    const CertifiedCmax hs = hs_certified_cmax(p, m, k);

    const double tol = 1e-9 * std::max(bnb.upper, Time{1});
    ASSERT_LE(hs.lower, bnb.upper + tol) << "seed " << seed;       // LB sound
    ASSERT_LE(hs.lower, hs.upper + tol) << "seed " << seed;        // bracket
    ASSERT_LE(bnb.lower, hs.upper + tol) << "seed " << seed;       // UB real
    ASSERT_EQ(hs.backend, CertifyBackend::kPtas);
    ASSERT_EQ(recomputed_makespan(hs.assignment, p, m), hs.upper)
        << "seed " << seed;
    if (bnb.exact) {
      ASSERT_LE(hs.upper, hs_guarantee(k) * bnb.upper * (1 + 1e-6))
          << "seed " << seed;
    }
  }
}

TEST(HsCertify, ModerateInstanceMeetsGuarantee) {
  Xoshiro256 rng(99);
  const std::vector<Time> p = random_times(rng, 20'000);
  const MachineId m = 16;
  HsCertifyStats stats;
  const CertifiedCmax result = hs_certified_cmax(p, m, 8, &stats);

  EXPECT_GT(result.lower, 0.0);
  EXPECT_LE(result.lower, result.upper);
  EXPECT_LE(result.upper, hs_guarantee(8) * result.lower * (1 + 1e-6));
  EXPECT_EQ(result.assignment.machine_of.size(), p.size());
  EXPECT_EQ(recomputed_makespan(result.assignment, p, m), result.upper);
  EXPECT_GT(stats.iterations, 0);
}

TEST(HsCertify, DegenerateInstances) {
  // m == 0 and precision_k < 2 are caller bugs.
  EXPECT_THROW((void)hs_certified_cmax(std::vector<Time>{1.0}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)hs_certified_cmax(std::vector<Time>{1.0}, 2, 1),
               std::invalid_argument);

  // A non-finite time has no optimum to certify; unchecked, NaN yields a
  // "proven" optimum of 0 and inf an exact bracket of [inf, inf].
  constexpr Time kNaN = std::numeric_limits<Time>::quiet_NaN();
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  EXPECT_THROW((void)hs_certified_cmax(std::vector<Time>{3, 5, kNaN, 2, 7}, 2),
               std::invalid_argument);
  EXPECT_THROW((void)hs_certified_cmax(std::vector<Time>{3, 5, kInf, 2, 7}, 2),
               std::invalid_argument);

  // Empty and all-zero instances are exact with zero makespan.
  const CertifiedCmax empty = hs_certified_cmax(std::vector<Time>{}, 3);
  EXPECT_TRUE(empty.exact);
  EXPECT_EQ(empty.upper, 0.0);
  const CertifiedCmax zeros = hs_certified_cmax(std::vector<Time>(4, 0.0), 2);
  EXPECT_TRUE(zeros.exact);
  EXPECT_EQ(zeros.upper, 0.0);

  // Fewer tasks than machines: one task per machine is optimal.
  const std::vector<Time> few = {5.0, 3.0};
  const CertifiedCmax spread = hs_certified_cmax(few, 4);
  EXPECT_LE(spread.lower, 5.0 + 1e-9);
  EXPECT_LE(spread.upper, hs_guarantee(8) * 5.0 * (1 + 1e-6));
}

TEST(HsCertify, SingleTaskIsExact) {
  const CertifiedCmax one = hs_certified_cmax(std::vector<Time>{5.0}, 3);
  EXPECT_TRUE(one.exact);
  EXPECT_EQ(one.lower, 5.0);
  EXPECT_EQ(one.upper, 5.0);
}

TEST(HsCertify, UnitTasksSolvedExactly) {
  const std::vector<Time> p(12, 1.0);
  const CertifiedCmax r = hs_certified_cmax(p, 4, 3);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.upper, 3.0);
  EXPECT_EQ(recomputed_makespan(r.assignment, p, 4), 3.0);
}

TEST(HsCertify, BeatsLptOnItsWorstCase) {
  // Graham's LPT worst case for m = 2: {3,3,2,2,2}; LPT = 7, OPT = 6.
  const std::vector<Time> p = {3.0, 3.0, 2.0, 2.0, 2.0};
  ASSERT_EQ(lpt_schedule(p, 2).makespan, 7.0);
  const CertifiedCmax r = hs_certified_cmax(p, 2, 4);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.upper, 6.0);
  EXPECT_EQ(recomputed_makespan(r.assignment, p, 2), 6.0);
}

TEST(HsCertify, AssignmentReproducesUpper) {
  Xoshiro256 rng(5);
  const std::vector<Time> p = random_times(rng, 20);
  const CertifiedCmax r = hs_certified_cmax(p, 4, 3);
  EXPECT_EQ(r.assignment.machine_of.size(), p.size());
  EXPECT_EQ(recomputed_makespan(r.assignment, p, 4), r.upper);
}

TEST(HsCertify, BracketWidthBoundsTheTrueRatio) {
  Xoshiro256 rng(7);
  const std::vector<Time> p = random_times(rng, 14);
  const CertifiedCmax r = hs_certified_cmax(p, 3, 3);
  const BnbResult opt = branch_and_bound_cmax(p, 3);
  ASSERT_TRUE(opt.proven);
  EXPECT_LE(r.upper, hs_guarantee(3) * r.lower * (1 + 1e-9));
  EXPECT_LE(r.upper / opt.best, r.upper / r.lower * (1 + 1e-9));
}

TEST(HsCertify, DefaultPrecisionIsEight) {
  Xoshiro256 rng(17);
  const std::vector<Time> p = random_times(rng, 40);
  const CertifiedCmax implicit = hs_certified_cmax(p, 5);
  const CertifiedCmax explicit_k = hs_certified_cmax(p, 5, 8);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(implicit.lower),
            std::bit_cast<std::uint64_t>(explicit_k.lower));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(implicit.upper),
            std::bit_cast<std::uint64_t>(explicit_k.upper));
  EXPECT_EQ(implicit.assignment.machine_of, explicit_k.assignment.machine_of);
}

// The bisection runs at most 64 probes, and every probe is either a
// sound infeasibility proof or lowers hi.
TEST(HsCertify, BisectionStaysWithinIterationCap) {
  Xoshiro256 rng(31);
  for (const std::size_t n : {std::size_t{30}, std::size_t{3000}}) {
    const std::vector<Time> p = random_times(rng, n);
    HsCertifyStats stats;
    const CertifiedCmax r = hs_certified_cmax(p, 7, 5, &stats);
    EXPECT_GT(stats.iterations, 0);
    EXPECT_LE(stats.iterations, 64);
    EXPECT_LE(stats.infeasible_proofs, stats.iterations);
    EXPECT_LE(stats.dp_exhaustions, stats.dp_decisions);
    EXPECT_LE(r.lower, r.upper);
  }
}

// The (seed, n, m, k) grid against a proven branch-and-bound optimum:
// upper within (1 + 1/k) of OPT, lower never above OPT, and upper exactly
// the makespan recomputed from the assignment.
struct HsCase {
  std::uint64_t seed;
  std::size_t n;
  MachineId m;
  unsigned k;
};

class HsGuarantee : public ::testing::TestWithParam<HsCase> {};

TEST_P(HsGuarantee, WithinOnePlusOneOverK) {
  const auto [seed, n, m, k] = GetParam();
  Xoshiro256 rng(seed);
  const std::vector<Time> p = random_times(rng, n);

  const BnbResult opt = branch_and_bound_cmax(p, m);
  ASSERT_TRUE(opt.proven);
  const CertifiedCmax r = hs_certified_cmax(p, m, k);
  EXPECT_LE(r.upper, hs_guarantee(k) * opt.best * (1 + 1e-9)) << "k=" << k;
  EXPECT_LE(r.lower, opt.best * (1 + 1e-9)) << "k=" << k;
  EXPECT_EQ(recomputed_makespan(r.assignment, p, m), r.upper);
}

std::vector<HsCase> hs_grid() {
  std::vector<HsCase> cases;
  std::uint64_t seed = 11;
  for (unsigned k : {2u, 3u, 4u}) {
    for (MachineId m : {2u, 3u, 4u}) {
      cases.push_back({seed++, 12, m, k});
      cases.push_back({seed++, 18, m, k});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, HsGuarantee, ::testing::ValuesIn(hs_grid()));

// ---------------------------------------------------------------------
// Engine routing: size threshold, backend tag, cache behavior.

TEST(CertifyRouting, SmallInstancesKeepBranchAndBound) {
  Xoshiro256 rng(5);
  const std::vector<Time> p = random_times(rng, 8);
  CertifyEngine engine;
  const CertifiedCmax result = engine.certify(p, 3);
  EXPECT_EQ(result.backend, CertifyBackend::kBnb);
}

TEST(CertifyRouting, LargeInstancesRouteToPtas) {
  Xoshiro256 rng(6);
  const std::vector<Time> p = random_times(rng, 600);  // past the 512 default
  CertifyEngine engine;
  const CertifiedCmax result = engine.certify(p, 8);
  EXPECT_EQ(result.backend, CertifyBackend::kPtas);
  EXPECT_LE(result.lower, result.upper);
  EXPECT_EQ(result.assignment.machine_of.size(), p.size());

  // A cache hit returns the same backend tag and the same bytes.
  const CertifiedCmax again = engine.certify(p, 8);
  EXPECT_EQ(again.backend, CertifyBackend::kPtas);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.lower),
            std::bit_cast<std::uint64_t>(result.lower));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(again.upper),
            std::bit_cast<std::uint64_t>(result.upper));
  EXPECT_GE(engine.cache_stats().hits, 1u);
}

TEST(CertifyRouting, ThresholdZeroDisablesPtas) {
  Xoshiro256 rng(8);
  const std::vector<Time> p = random_times(rng, 600);
  CertifyEngine engine;
  CertifyOptions options;
  options.ptas_threshold = 0;
  options.node_budget = 1000;  // keep the B&B cheap; exactness not needed
  const CertifiedCmax result = engine.certify(p, 8, options);
  EXPECT_EQ(result.backend, CertifyBackend::kBnb);
}

// CertifyOptions::ptas_precision is the backend's precision_k: the engine
// certifies the canonical (sorted, max-scaled) vector with it.
TEST(CertifyRouting, PtasPrecisionReachesBackend) {
  Xoshiro256 rng(9);
  std::vector<Time> p = random_times(rng, 600);
  std::sort(p.begin(), p.end(), std::greater<>());
  const Time scale = p.front();
  for (Time& v : p) v /= scale;  // already canonical: the engine's key is p
  CertifyEngine engine;
  CertifyOptions options;
  options.ptas_precision = 3;
  const CertifiedCmax routed = engine.certify(p, 8, options);
  const CertifiedCmax direct = hs_certified_cmax(p, 8, 3);
  EXPECT_EQ(routed.backend, CertifyBackend::kPtas);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(routed.lower),
            std::bit_cast<std::uint64_t>(direct.lower));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(routed.upper),
            std::bit_cast<std::uint64_t>(direct.upper));
}

// A PTAS-routed batch must be bit-identical across thread counts
// (mirrors the B&B determinism test in test_certify_cache.cpp).
TEST(CertifyRouting, PtasBatchBitIdenticalAcrossThreadCounts) {
  Xoshiro256 rng(42);
  std::vector<std::vector<Time>> storage;
  for (int i = 0; i < 12; ++i) {
    storage.push_back(random_times(rng, 700 + 13 * static_cast<std::size_t>(i)));
  }
  std::vector<CertifyRequest> batch;
  for (const std::vector<Time>& p : storage) {
    batch.push_back(CertifyRequest{p, 8});
  }

  const auto run = [&](ThreadPool* pool) {
    CertifyEngine engine;  // fresh engine: no cross-run cache reuse
    CertifyOptions options;
    options.pool = pool;
    return engine.certify_batch(batch, options);
  };
  const std::vector<CertifiedCmax> seq = run(nullptr);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::vector<CertifiedCmax> par = run(&pool);
    ASSERT_EQ(par.size(), seq.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i].backend, CertifyBackend::kPtas);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seq[i].lower),
                std::bit_cast<std::uint64_t>(par[i].lower));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(seq[i].upper),
                std::bit_cast<std::uint64_t>(par[i].upper));
      EXPECT_EQ(seq[i].assignment.machine_of, par[i].assignment.machine_of);
    }
  }
}

}  // namespace
}  // namespace rdp
