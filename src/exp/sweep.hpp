// Cartesian parameter sweeps over (m, alpha, workload seed) cells, run
// on a thread pool. Results land in a caller-indexed vector so parallel
// execution stays deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class ThreadPool;

/// One cell of a sweep grid.
struct SweepCell {
  MachineId m = 1;
  double alpha = 1.0;
  std::uint64_t seed = 0;
  std::size_t index = 0;  ///< flat index into the result vector
};

/// Builds the cartesian grid machines x alphas x seeds (in that nesting
/// order, seeds fastest).
[[nodiscard]] std::vector<SweepCell> make_grid(const std::vector<MachineId>& machines,
                                               const std::vector<double>& alphas,
                                               const std::vector<std::uint64_t>& seeds);

/// Runs `body` for every cell on `pool`. The body must only write to
/// per-cell state (e.g. results[cell.index]). If a body throws, cells
/// that have not started are cancelled and their result slots are left
/// in whatever state the caller initialized them to; the first exception
/// is rethrown. A one-thread pool runs the cells in grid order.
void run_sweep_parallel(ThreadPool& pool, const std::vector<SweepCell>& grid,
                        const std::function<void(const SweepCell&)>& body);

}  // namespace rdp
