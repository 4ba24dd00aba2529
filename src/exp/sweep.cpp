#include "exp/sweep.hpp"

#include <chrono>
#include <string>

#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace rdp {

namespace {

std::string cell_args_json(const SweepCell& cell) {
  return "{\"index\":" + std::to_string(cell.index) +
         ",\"m\":" + std::to_string(cell.m) +
         ",\"seed\":" + std::to_string(cell.seed) + "}";
}

// Runs one cell with per-cell metrics/trace. `mx`/`tr` may be null.
void run_cell(const SweepCell& cell, const std::function<void(const SweepCell&)>& body,
              obs::MetricsRegistry* mx, obs::Tracer* tr) {
  const std::uint64_t start_us = tr ? tr->now_us() : 0;
  {
    obs::ScopedTimer timer(mx ? &mx->histogram("sweep.cell_seconds") : nullptr);
    body(cell);
  }
  if (mx) mx->counter("sweep.cells_done").add(1);
  if (tr) {
    tr->span("sweep.cell", "exp", start_us, tr->now_us() - start_us,
             cell_args_json(cell));
  }
}

// Derives cells/sec from the sweep's own wall time; only touched when a
// registry is installed, so disabled runs never read the clock.
class SweepRateScope {
 public:
  SweepRateScope(obs::MetricsRegistry* mx, std::size_t cells) : mx_(mx), cells_(cells) {
    if (mx_) start_ = std::chrono::steady_clock::now();
  }
  ~SweepRateScope() {
    if (!mx_) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    mx_->histogram("sweep.run_seconds").observe(elapsed);
    if (elapsed > 0) {
      mx_->gauge("sweep.cells_per_sec").set(static_cast<double>(cells_) / elapsed);
    }
  }

 private:
  obs::MetricsRegistry* mx_;
  std::size_t cells_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

std::vector<SweepCell> make_grid(const std::vector<MachineId>& machines,
                                 const std::vector<double>& alphas,
                                 const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepCell> grid;
  grid.reserve(machines.size() * alphas.size() * seeds.size());
  std::size_t index = 0;
  for (MachineId m : machines) {
    for (double alpha : alphas) {
      for (std::uint64_t seed : seeds) {
        grid.push_back(SweepCell{m, alpha, seed, index++});
      }
    }
  }
  return grid;
}

void run_sweep_parallel(ThreadPool& pool, const std::vector<SweepCell>& grid,
                        const std::function<void(const SweepCell&)>& body) {
  obs::MetricsRegistry* const mx = obs::metrics();
  obs::Tracer* const tr = obs::tracer();
  if (mx == nullptr && tr == nullptr) {
    parallel_for_each_index(pool, grid.size(),
                            [&](std::size_t i) { body(grid[i]); });
    return;
  }
  obs::ScopedSpan span(tr, "run_sweep_parallel", "exp");
  SweepRateScope rate(mx, grid.size());
  parallel_for_each_index(pool, grid.size(),
                          [&](std::size_t i) { run_cell(grid[i], body, mx, tr); });
}

}  // namespace rdp
