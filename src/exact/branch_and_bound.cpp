#include "exact/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/lpt.hpp"
#include "exact/lower_bounds.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"

namespace rdp {

namespace {

constexpr double kEps = 1e-12;

// One machine in a depth's order: its load at that depth and its index.
struct Slot {
  Time load;
  MachineId machine;
};

// The branching order: non-decreasing load, ties toward the smaller index.
// A strict total order, so each depth's order is unique.
bool precedes(const Slot& a, const Slot& b) noexcept {
  return a.load != b.load ? a.load < b.load : a.machine < b.machine;
}

struct SearchState {
  std::span<const Time> p;       // sorted non-increasing
  MachineId m;
  std::uint64_t node_budget;
  std::uint64_t nodes = 0;
  bool budget_exhausted = false;
  Time incumbent = std::numeric_limits<Time>::infinity();
  Time root_lb = 0;
  Time avg_bound = 0;            // sum(p)/m -- constant over the whole search
  // Depth j's machines in `precedes` order are slots [j*m, (j+1)*m); a
  // child's order is its parent's with one slot re-inserted, so no node
  // sorts. Depth 0 is all zero loads in index order.
  std::vector<Slot> order;
  std::vector<MachineId> current;
  std::vector<MachineId> best;
};

// Writes to `child` the order `parent` (m slots) would have with slot q
// replaced by `moved`. The parent minus slot q is still sorted, so one
// merge places `moved` whichever way its load changed.
void reinsert(const Slot* parent, MachineId m, MachineId q, Slot moved,
              Slot* child) noexcept {
  MachineId k = 0;
  for (; k < m; ++k) {
    if (k == q) continue;
    if (precedes(moved, parent[k])) break;
    *child++ = parent[k];
  }
  *child++ = moved;
  for (; k < m; ++k) {
    if (k != q) *child++ = parent[k];
  }
}

// `max_load` is threaded down the recursion instead of recomputed with a
// per-node max_element scan; it always equals the largest load at depth j.
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
  Slot* const order = st.order.data() + std::size_t{j} * st.m;
  // Node lower bound: the completed schedule can be no better than
  //  - the largest load already committed,
  //  - the average load over all machines (constant: every task is placed),
  //  - the "two largest remaining tasks" bin argument: task j lands on some
  //    machine (>= min_load + p[j]); if j+1 exists, either it shares that
  //    bin (>= min_load + p[j] + p[j+1]) or it lands on a second machine
  //    whose load is at least the second-smallest (>= min2 + p[j+1]).
  const Time min1 = order[0].load;
  const Time pj = st.p[j];
  Time lb = std::max(max_load, st.avg_bound);
  if (j + 1 < st.p.size() && st.m >= 2) {
    const Time min2 = order[1].load;
    const Time same_bin = min1 + pj + st.p[j + 1];
    const Time diff_bins = std::max(min1 + pj, min2 + st.p[j + 1]);
    lb = std::max(lb, std::min(same_bin, diff_bins));
  } else {
    lb = std::max(lb, min1 + pj);
  }
  if (lb >= st.incumbent - kEps) return;

  // Branch: machines in `order`, skipping adjacent equal loads -- assigning
  // the next task to either of two equally loaded machines yields
  // symmetric subtrees. Equal loads are adjacent in `order`, so the dedup
  // is complete for any m, and the loop stops at the first load that
  // cannot beat the incumbent.
  Slot* const child = order + st.m;
  for (MachineId q = 0; q < st.m; ++q) {
    const Time load = order[q].load;
    if (q > 0 && load == order[q - 1].load) continue;
    // Loads only grow along `order`, so once one fails they all do.
    if (load + pj >= st.incumbent - kEps) break;
    reinsert(order, st.m, q, Slot{load + pj, order[q].machine}, child);
    st.current[j] = order[q].machine;
    dfs(st, j + 1, std::max(max_load, load + pj));
    if (st.budget_exhausted) return;
    // Optimality fathoming: nothing can beat the root lower bound.
    if (st.incumbent <= st.root_lb + kEps) return;
  }
}

}  // namespace

void require_finite_times(std::span<const Time> p, const char* who) {
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (std::isfinite(p[j])) continue;
    throw std::invalid_argument(std::string(who) + ": non-finite time at index " +
                                std::to_string(j));
  }
}

BnbResult branch_and_bound_cmax(std::span<const Time> p, MachineId m,
                                std::uint64_t node_budget,
                                const BnbWarmStart& warm) {
  if (m == 0) throw std::invalid_argument("branch_and_bound_cmax: m must be >= 1");
  require_finite_times(p, "branch_and_bound_cmax");
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
  st.order.resize((p.size() + 1) * m);
  for (MachineId i = 0; i < m; ++i) st.order[i] = Slot{0, i};
  st.current.assign(p.size(), 0);
  st.best.assign(p.size(), 0);
  // Summed smallest-first in sequence, not with sum_scan: its lanes round
  // differently, and the bound's last bit can decide a prune.
  Time total = 0;
  for (std::size_t j = p.size(); j-- > 0;) total += sorted[j];
  st.avg_bound = total / static_cast<double>(m);
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

  if (obs::MetricsRegistry* const mx = obs::metrics()) {
    mx->counter("exp.certify.bnb_nodes").add(st.nodes);
    mx->counter("exp.certify.bnb_budget_exhausted").add(st.budget_exhausted ? 1 : 0);
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
