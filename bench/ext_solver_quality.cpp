// Extension experiment I: quality/cost of the optimum-certification stack
// (LPT, MULTIFIT, the Hochbaum-Shmoys certified bracket at two precisions,
// exact branch-and-bound) on random instances. Justifies the experiment
// harness's choice of denominators and reproduces the classic
// quality-vs-effort ladder the paper's related work points at.
//
// Usage: ext_solver_quality [--n=16] [--m=4] [--reps=10]
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "algo/lpt.hpp"
#include "cli/args.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/dual_approx.hpp"
#include "exact/certify_scale.hpp"
#include "io/table.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "stats/welford.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rdp;
  const Args args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get("n", std::int64_t{16}));
  const auto m = static_cast<MachineId>(args.get("m", std::int64_t{4}));
  const auto reps = static_cast<std::size_t>(args.get("reps", std::int64_t{10}));

  std::cout << "=== Ext-I: solver quality ladder (n=" << n << ", m=" << m << ", "
            << reps << " random instances) ===\n\n";

  Welford lpt_ratio, mf_ratio, hs2_ratio, hs4_ratio;
  double lpt_time = 0, mf_time = 0, hs2_time = 0, hs4_time = 0, bnb_time = 0;

  for (std::size_t rep = 0; rep < reps; ++rep) {
    Xoshiro256 rng(100 + rep);
    std::vector<Time> p;
    for (std::size_t j = 0; j < n; ++j) p.push_back(sample_uniform(rng, 0.5, 10.0));

    auto t0 = Clock::now();
    const BnbResult opt = branch_and_bound_cmax(p, m);
    bnb_time += seconds_since(t0);
    if (!opt.proven || opt.best <= 0) continue;

    t0 = Clock::now();
    const GreedyScheduleResult lpt = lpt_schedule(p, m);
    lpt_time += seconds_since(t0);
    lpt_ratio.add(lpt.makespan / opt.best);

    t0 = Clock::now();
    const MultifitResult mf = multifit_cmax(p, m);
    mf_time += seconds_since(t0);
    mf_ratio.add(mf.makespan / opt.best);

    t0 = Clock::now();
    const CertifiedCmax hs2 = hs_certified_cmax(p, m, 2);
    hs2_time += seconds_since(t0);
    hs2_ratio.add(hs2.upper / opt.best);

    t0 = Clock::now();
    const CertifiedCmax hs4 = hs_certified_cmax(p, m, 4);
    hs4_time += seconds_since(t0);
    hs4_ratio.add(hs4.upper / opt.best);
  }

  const double dreps = static_cast<double>(reps);
  TextTable table({"solver", "worst-case bound", "mean ratio", "max ratio",
                   "mean time (ms)"});
  table.add_row({"LPT", fmt(lpt_guarantee(m)), fmt(lpt_ratio.mean()),
                 fmt(lpt_ratio.max()), fmt(1e3 * lpt_time / dreps, 3)});
  table.add_row({"MULTIFIT", fmt(multifit_guarantee()), fmt(mf_ratio.mean()),
                 fmt(mf_ratio.max()), fmt(1e3 * mf_time / dreps, 3)});
  table.add_row({"HS k=2", fmt(hs_guarantee(2)), fmt(hs2_ratio.mean()),
                 fmt(hs2_ratio.max()), fmt(1e3 * hs2_time / dreps, 3)});
  table.add_row({"HS k=4", fmt(hs_guarantee(4)), fmt(hs4_ratio.mean()),
                 fmt(hs4_ratio.max()), fmt(1e3 * hs4_time / dreps, 3)});
  table.add_row({"B&B (exact)", fmt(1.0), fmt(1.0), fmt(1.0),
                 fmt(1e3 * bnb_time / dreps, 3)});
  std::cout << table.render()
            << "\nShape: every rung's max ratio sits below its worst-case bound.\n"
               "Note the classic practice-vs-theory inversion: LPT's and\n"
               "MULTIFIT's *measured* quality beat the HS rungs (whose schedules\n"
               "may sit a full (1+1/k) above the bisection target), even though\n"
               "HS has the stronger guarantee as k grows. The certification\n"
               "engine keeps B&B for denominators up to 512 tasks and routes\n"
               "larger instances to HS for its certified lower bound.\n";
  return EXIT_SUCCESS;
}
