// Extension experiment: certified lower bounds at scale. Exercises the
// Hochbaum-Shmoys dual-approximation backend of CertifyEngine at
// 10^5..10^6 tasks and pins four things under the perf gate:
//
//   scale       -- end-to-end engine certify (canonicalize + HS bisection
//                  + schedule materialization) per instance size, single
//                  threaded, with the realized guarantee upper/lower
//                  checked against (1 + 1/k);
//   multifit    -- MULTIFIT at 2*10^5 tasks (regression guard for the
//                  sort-once + first-fit-tree rewrite of ffd_fits);
//   soundness   -- seeded fuzz on small instances where branch-and-bound
//                  is exact: ptas_lower <= OPT <= ptas_upper <=
//                  (1+1/k)*OPT and multifit <= 13/11*OPT, counted as an
//                  exact-class violation metric (must stay 0);
//   determinism -- one PTAS-routed batch through the engine at 1, 2 and 8
//                  threads, compared bit-for-bit.
//
// The perf-gate record (perf::BenchRecord) goes to --out. Timing metrics
// gate as "timing" (warn-only on shared runners); iteration counts,
// violation counters and bit-mismatch counters gate as "exact" and are
// enforced even under `perf gate --warn-only --enforce-exact` (see
// docs/PERFORMANCE.md).
//
// Usage: ext_certify_scale [--sizes=100000,1000000] [--m=64] [--k=4]
//        [--fuzz-seeds=200] [--multifit-n=200000] [--batch=16]
//        [--batch-n=4096] [--out=BENCH_certify_scale.json]
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/args.hpp"
#include "exact/certify.hpp"
#include "exact/certify_scale.hpp"
#include "exact/dual_approx.hpp"
#include "exact/optimal.hpp"
#include "io/json.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/bench_record.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"

namespace {

using namespace rdp;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_sizes(const std::string& spec) {
  std::vector<std::size_t> sizes;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) sizes.push_back(static_cast<std::size_t>(std::stoull(item)));
  }
  if (sizes.empty()) throw std::invalid_argument("--sizes: no values");
  return sizes;
}

std::vector<Time> uniform_tasks(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Time> p(n);
  for (Time& v : p) v = sample_uniform(rng, 0.5, 10.0);
  return p;
}

constexpr std::uint64_t kSeed = 20260808;

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::vector<std::size_t> sizes =
      parse_sizes(args.get("sizes", std::string("100000,1000000")));
  const auto m = static_cast<MachineId>(args.get("m", std::int64_t{64}));
  const auto k = static_cast<unsigned>(args.get("k", std::int64_t{4}));
  const auto fuzz_seeds =
      static_cast<std::size_t>(args.get("fuzz-seeds", std::int64_t{200}));
  const auto multifit_n =
      static_cast<std::size_t>(args.get("multifit-n", std::int64_t{200'000}));
  const auto batch_count =
      static_cast<std::size_t>(args.get("batch", std::int64_t{16}));
  const auto batch_n =
      static_cast<std::size_t>(args.get("batch-n", std::int64_t{4096}));
  const std::string out_path =
      args.get("out", std::string("BENCH_certify_scale.json"));

  const double bound = hs_guarantee(k);
  std::cout << "=== certify at scale: sizes={";
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    std::cout << (i ? "," : "") << sizes[i];
  }
  std::cout << "} m=" << m << " k=" << k << " (guarantee " << bound << ") ===\n";

  using perf::Direction, perf::Noise;
  perf::BenchRecord record;
  record.name = "certify_scale";

  // ---- scale: single-threaded engine certify per instance size ----------
  bool any_violation = false;
  TextTable scale_table({"n", "engine s", "lower", "upper", "guarantee",
                         "iters", "proofs", "dp", "backend"});
  for (std::size_t idx = 0; idx < sizes.size(); ++idx) {
    const std::size_t n = sizes[idx];
    const std::vector<Time> p = uniform_tasks(n, kSeed + idx);

    CertifyEngine engine;
    CertifyOptions options;
    options.ptas_precision = k;
    const auto start = Clock::now();
    const CertifiedCmax result = engine.certify(p, m, options);
    const double engine_seconds = seconds_since(start);

    // Deterministic shape stats from a direct backend call (the engine
    // path and the direct path share the same decision procedure).
    HsCertifyStats stats;
    const CertifiedCmax direct = hs_certified_cmax(p, m, k, &stats);

    const double guarantee =
        result.lower > 0 ? result.upper / result.lower : 1.0;
    const bool violation = result.backend != CertifyBackend::kPtas ||
                           result.lower > result.upper ||
                           guarantee > bound * (1.0 + 1e-6) ||
                           direct.lower > result.upper * (1.0 + 1e-9);
    any_violation = any_violation || violation;

    scale_table.add_row({std::to_string(n), fmt(engine_seconds, 4),
                         fmt(result.lower, 2), fmt(result.upper, 2),
                         fmt(guarantee, 6), std::to_string(stats.iterations),
                         std::to_string(stats.infeasible_proofs),
                         std::to_string(stats.dp_decisions),
                         to_string(result.backend)});

    const std::string suffix = "_n" + std::to_string(n);
    record.add("scale.engine_seconds" + suffix, engine_seconds, Direction::kLower,
               Noise::kTiming);
    record.add("scale.iterations" + suffix, static_cast<double>(stats.iterations),
               Direction::kLower, Noise::kExact);
    // The realized guarantee depends only on the deterministic bisection
    // bracket; a hair of absolute slack covers dump/parse rounding.
    record.add("scale.guarantee" + suffix, guarantee, Direction::kLower,
               Noise::kExact, /*abs_slack=*/1e-9);
    record.add("scale.violations" + suffix, violation ? 1.0 : 0.0,
               Direction::kLower, Noise::kExact);
  }
  std::cout << scale_table.render();

  // ---- multifit: sort-once + first-fit-tree regression guard ------------
  const std::vector<Time> mf_tasks = uniform_tasks(multifit_n, kSeed + 97);
  const auto mf_start = Clock::now();
  const MultifitResult mf = multifit_cmax(mf_tasks, m);
  const double multifit_seconds = seconds_since(mf_start);
  std::cout << "multifit n=" << multifit_n << ": " << multifit_seconds
            << " s, " << mf.iterations << " iterations, makespan "
            << mf.makespan << " (certified lower " << mf.certified_lower
            << ")\n";

  // ---- soundness: seeded fuzz against exact branch-and-bound ------------
  std::size_t soundness_violations = 0;
  std::size_t exact_cases = 0;
  for (std::size_t s = 0; s < fuzz_seeds; ++s) {
    Xoshiro256 rng(kSeed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    const std::size_t n = 3 + rng.next_below(10);           // 3..12 tasks
    const auto mm = static_cast<MachineId>(2 + rng.next_below(3));  // 2..4
    std::vector<Time> p(n);
    for (Time& v : p) v = sample_uniform(rng, 0.1, 10.0);
    const unsigned ks = 3 + static_cast<unsigned>(s % 3);

    const CertifiedCmax bnb = certified_cmax(p, mm, 2'000'000);
    const CertifiedCmax ptas = hs_certified_cmax(p, mm, ks);
    const MultifitResult small_mf = multifit_cmax(p, mm);

    const double tol = 1e-9 * std::max(bnb.upper, Time{1});
    bool bad = ptas.lower > bnb.upper + tol;         // LB soundness
    bad = bad || ptas.lower > ptas.upper + tol;      // bracket order
    bad = bad || bnb.lower > ptas.upper + tol;       // schedule is real
    bad = bad || small_mf.certified_lower > bnb.upper + tol;
    if (bnb.exact) {
      ++exact_cases;
      const Time opt = bnb.upper;
      bad = bad || ptas.upper > hs_guarantee(ks) * opt * (1.0 + 1e-6);
      bad = bad || small_mf.makespan > multifit_guarantee() * opt * (1.0 + 1e-9);
    }
    if (bad) ++soundness_violations;
  }
  std::cout << "soundness fuzz: " << fuzz_seeds << " seeds ("
            << exact_cases << " with exact B&B optimum), "
            << soundness_violations << " violations\n";

  // ---- determinism: one PTAS batch across 1/2/8 threads -----------------
  std::vector<std::vector<Time>> batch_tasks;
  std::vector<CertifyRequest> requests;
  batch_tasks.reserve(batch_count);
  for (std::size_t b = 0; b < batch_count; ++b) {
    batch_tasks.push_back(uniform_tasks(batch_n, kSeed + 1000 + b));
  }
  for (const std::vector<Time>& p : batch_tasks) {
    requests.push_back(CertifyRequest{p, m});
  }
  const auto run_batch = [&](ThreadPool* pool) {
    CertifyEngine engine;
    CertifyOptions options;
    options.ptas_precision = k;
    options.pool = pool;
    return engine.certify_batch(requests, options);
  };
  const std::vector<CertifiedCmax> batch_seq = run_batch(nullptr);
  std::size_t bit_mismatches = 0;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    const std::vector<CertifiedCmax> batch_par = run_batch(&pool);
    for (std::size_t i = 0; i < batch_seq.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(batch_seq[i].lower) !=
              std::bit_cast<std::uint64_t>(batch_par[i].lower) ||
          std::bit_cast<std::uint64_t>(batch_seq[i].upper) !=
              std::bit_cast<std::uint64_t>(batch_par[i].upper)) {
        ++bit_mismatches;
      }
    }
  }
  std::cout << "determinism: " << batch_count << " x n=" << batch_n
            << " batch across {1,2,8} threads, " << bit_mismatches
            << " bit mismatches\n";

  // ---- gate record --------------------------------------------------------
  record.set_params(JsonObject{{"sizes", JsonArray(sizes.begin(), sizes.end())},
                               {"m", m}, {"k", k}, {"fuzz_seeds", fuzz_seeds},
                               {"multifit_n", multifit_n}, {"batch", batch_count},
                               {"batch_n", batch_n}});
  record.add("multifit.seconds", multifit_seconds, Direction::kLower, Noise::kTiming);
  record.add("multifit.iterations", static_cast<double>(mf.iterations),
             Direction::kLower, Noise::kExact);
  record.add("soundness.violations", static_cast<double>(soundness_violations),
             Direction::kLower, Noise::kExact);
  record.add("soundness.exact_cases", static_cast<double>(exact_cases),
             Direction::kNone, Noise::kExact);
  record.add("determinism.bit_mismatches", static_cast<double>(bit_mismatches),
             Direction::kLower, Noise::kExact);
  record.save(out_path);
  std::cout << "JSON written to " << out_path << "\n";

  if (any_violation || soundness_violations != 0 || bit_mismatches != 0) {
    std::cerr << "FAIL: certified-bound violation, soundness failure, or "
                 "nondeterministic batch\n";
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
