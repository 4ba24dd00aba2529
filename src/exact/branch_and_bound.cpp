#include "exact/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "algo/lpt.hpp"
#include "exact/lower_bounds.hpp"

namespace rdp {

namespace {

constexpr double kEps = 1e-12;

struct SearchState {
  std::span<const Time> p;       // sorted non-increasing
  MachineId m;
  std::uint64_t node_budget;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  Time incumbent = std::numeric_limits<Time>::infinity();
  Time root_lb = 0;
  Time avg_bound = 0;            // sum(p)/m -- constant over the whole search
  std::vector<Time> loads;
  std::vector<Time> suffix_sum;  // suffix_sum[j] = sum of p[j..n)
  std::vector<MachineId> current;
  std::vector<MachineId> best;
  // Per-depth scratch for the sorted-load machine order (recursion would
  // clobber a single shared buffer).
  std::vector<std::vector<MachineId>> machine_order;
};

// `max_load` is threaded down the recursion instead of recomputed with a
// per-node max_element scan; it always equals max(st.loads).
void dfs(SearchState& st, TaskId j, Time max_load) {
  if (st.budget_exhausted) return;
  if (++st.nodes > st.node_budget) {
    st.budget_exhausted = true;
    return;
  }
  if (j == st.p.size()) {
    if (max_load < st.incumbent - kEps) {
      st.incumbent = max_load;
      st.best = st.current;
    }
    return;
  }
  // Node lower bound: the completed schedule can be no better than
  //  - the largest load already committed,
  //  - the average load over all machines (constant: every task is placed),
  //  - the "two largest remaining tasks" bin argument: task j lands on some
  //    machine (>= min_load + p[j]); if j+1 exists, either it shares that
  //    bin (>= min_load + p[j] + p[j+1]) or it lands on a second machine
  //    whose load is at least the second-smallest (>= min2 + p[j+1]).
  Time min1 = std::numeric_limits<Time>::infinity();
  Time min2 = std::numeric_limits<Time>::infinity();
  for (const Time l : st.loads) {
    if (l < min1) {
      min2 = min1;
      min1 = l;
    } else if (l < min2) {
      min2 = l;
    }
  }
  const Time pj = st.p[j];
  Time lb = std::max(max_load, st.avg_bound);
  if (j + 1 < st.p.size() && st.m >= 2) {
    const Time same_bin = min1 + pj + st.p[j + 1];
    const Time diff_bins = std::max(min1 + pj, min2 + st.p[j + 1]);
    lb = std::max(lb, std::min(same_bin, diff_bins));
  } else {
    lb = std::max(lb, min1 + pj);
  }
  if (lb >= st.incumbent - kEps) return;

  // Branch: machines in non-decreasing load order (ties toward the smaller
  // index), skipping adjacent equal loads -- assigning the next task to
  // either of two equally loaded machines yields symmetric subtrees. The
  // sorted order makes the dedup complete for any m (the former fixed-size
  // seen-loads array stopped deduplicating past 64 distinct loads) and
  // lets the loop stop at the first load that cannot beat the incumbent.
  std::vector<MachineId>& order = st.machine_order[j];
  order.resize(st.m);
  std::iota(order.begin(), order.end(), MachineId{0});
  std::sort(order.begin(), order.end(), [&](MachineId a, MachineId b) {
    return st.loads[a] != st.loads[b] ? st.loads[a] < st.loads[b] : a < b;
  });
  bool have_prev = false;
  Time prev_load = 0;
  for (const MachineId i : order) {
    const Time load = st.loads[i];
    if (have_prev && load == prev_load) continue;
    have_prev = true;
    prev_load = load;
    // Loads only grow along `order`, so once one fails they all do.
    if (load + pj >= st.incumbent - kEps) break;
    st.loads[i] = load + pj;
    st.current[j] = i;
    dfs(st, j + 1, std::max(max_load, load + pj));
    st.loads[i] = load;
    if (st.budget_exhausted) return;
    // Optimality fathoming: nothing can beat the root lower bound.
    if (st.incumbent <= st.root_lb + kEps) return;
  }
}

}  // namespace

BnbResult branch_and_bound_cmax(std::span<const Time> p, MachineId m,
                                std::uint64_t node_budget,
                                const BnbWarmStart& warm) {
  if (m == 0) throw std::invalid_argument("branch_and_bound_cmax: m must be >= 1");
  BnbResult result;
  result.assignment = Assignment(p.size());
  if (p.empty()) {
    result.proven = true;
    return result;
  }

  // Work on tasks sorted by non-increasing time; map back at the end.
  const std::vector<TaskId> order = lpt_order(p);
  std::vector<Time> sorted(p.size());
  for (std::size_t r = 0; r < order.size(); ++r) sorted[r] = p[order[r]];

  SearchState st;
  st.p = sorted;
  st.m = m;
  st.node_budget = node_budget;
  st.loads.assign(m, 0);
  st.current.assign(p.size(), 0);
  st.best.assign(p.size(), 0);
  st.machine_order.resize(p.size());
  st.suffix_sum.assign(p.size() + 1, 0);
  for (std::size_t j = p.size(); j-- > 0;) {
    st.suffix_sum[j] = st.suffix_sum[j + 1] + sorted[j];
  }
  st.avg_bound = st.suffix_sum[0] / static_cast<double>(m);
  st.root_lb = makespan_lower_bound(sorted, m);

  // LPT incumbent: `sorted` is in LPT order already (indices 0..n-1).
  const GreedyScheduleResult lpt = list_schedule(sorted, m);
  st.incumbent = lpt.makespan;
  for (std::size_t r = 0; r < sorted.size(); ++r) {
    st.best[r] = lpt.assignment.machine_of[r];
  }

  // Warm start: adopt the seed assignment when its makespan under `p`
  // beats LPT. Evaluated fresh here, so any complete assignment (e.g. the
  // optimum of a nearby instance) is a sound incumbent.
  if (warm.assignment != nullptr &&
      warm.assignment->machine_of.size() == p.size()) {
    std::vector<Time> warm_loads(m, 0);
    bool valid = true;
    for (std::size_t j = 0; j < p.size(); ++j) {
      const MachineId i = warm.assignment->machine_of[j];
      if (i >= m) {
        valid = false;
        break;
      }
      warm_loads[i] += p[j];
    }
    if (valid) {
      const Time warm_cmax =
          *std::max_element(warm_loads.begin(), warm_loads.end());
      if (warm_cmax < st.incumbent - kEps) {
        st.incumbent = warm_cmax;
        for (std::size_t r = 0; r < order.size(); ++r) {
          st.best[r] = warm.assignment->machine_of[order[r]];
        }
      }
    }
  }

  if (st.incumbent > st.root_lb + kEps) {
    dfs(st, 0, 0);
  }

  result.best = st.incumbent;
  result.nodes = st.nodes;
  result.proven = !st.budget_exhausted;
  result.lower_bound = result.proven ? st.incumbent : st.root_lb;
  for (std::size_t r = 0; r < order.size(); ++r) {
    result.assignment.machine_of[order[r]] = st.best[r];
  }
  return result;
}

}  // namespace rdp
