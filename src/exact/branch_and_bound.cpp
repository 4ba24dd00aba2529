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
  // Nodes counted by their parent: their bound failed, so no order was
  // built for them and no call made (a subset of `nodes`).
  std::uint64_t bound_pruned = 0;
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
// merge places `moved` whichever way its load changed. When it did not
// fall, every slot before q still precedes it and is copied unmerged.
void reinsert(const Slot* parent, MachineId m, MachineId q, Slot moved,
              Slot* child) noexcept {
  MachineId k = 0;
  if (!precedes(moved, parent[q])) {
    for (; k < q; ++k) *child++ = parent[k];
    ++k;
  }
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

// Lower bound of a node at depth j < n whose largest committed load is
// `max_load` and whose two smallest loads, in `precedes` order, are `min1`
// and `min2` (read only when m >= 2). The completed schedule can be no
// better than
//  - the largest load already committed,
//  - the average load over all machines (constant: every task is placed),
//  - the "two largest remaining tasks" bin argument: task j lands on some
//    machine (>= min1 + p[j]); if j+1 exists, either it shares that bin
//    (>= min1 + p[j] + p[j+1]) or it lands on a second machine whose load
//    is at least the second-smallest (>= min2 + p[j+1]).
// The root's visit and every parent's check of its children call this,
// so a prune decision is the same expression on the same doubles
// wherever it is made. `inline`: without it GCC leaves a call in the
// branch loop, the search's hottest code.
inline Time node_bound(const SearchState& st, TaskId j, Time max_load, Time min1,
                       Time min2) noexcept {
  const Time pj = st.p[j];
  Time lb = std::max(max_load, st.avg_bound);
  if (j + 1 < st.p.size() && st.m >= 2) {
    const Time same_bin = min1 + pj + st.p[j + 1];
    const Time diff_bins = std::max(min1 + pj, min2 + st.p[j + 1]);
    lb = std::max(lb, std::min(same_bin, diff_bins));
  } else {
    lb = std::max(lb, min1 + pj);
  }
  return lb;
}

void dfs(SearchState& st, TaskId j, Time max_load);

// Branches a counted node at depth j < n whose bound passed. `max_load`
// is threaded down the recursion instead of recomputed with a per-node
// max_element scan; it always equals the largest load at depth j.
//
// A child that is not a leaf and is within the budget is counted here,
// and its bound is taken from the first two slots `reinsert` would write:
// when it fails, the child is done without building its order or calling
// it. Leaves and a child that would exhaust the budget go through `dfs`.
// Either way the nodes, their order and every decision are the same.
void branch(SearchState& st, TaskId j, Time max_load) {
  Slot* const order = st.order.data() + std::size_t{j} * st.m;
  const Time pj = st.p[j];
  const bool inner_child = j + 1 < st.p.size();
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
    const Slot moved{load + pj, order[q].machine};
    const Time child_max = std::max(max_load, moved.load);
    const bool counted_here = inner_child && st.nodes < st.node_budget;
    if (counted_here) {
      ++st.nodes;
      // The child's first two slots: the parent's first two other than
      // q, with `moved` merged in. m = 1 leaves only `moved`, and m = 2
      // has no second other slot.
      Time min1 = moved.load;
      Time min2 = moved.load;
      if (st.m >= 2) {
        const Slot& first = order[q == 0 ? 1 : 0];
        if (precedes(moved, first)) {
          min2 = first.load;
        } else {
          min1 = first.load;
          const Slot& second = order[q <= 1 ? 2 : 1];
          if (st.m >= 3 && !precedes(moved, second)) min2 = second.load;
        }
      }
      if (node_bound(st, j + 1, child_max, min1, min2) >= st.incumbent - kEps) {
        ++st.bound_pruned;
        continue;
      }
    }
    reinsert(order, st.m, q, moved, child);
    st.current[j] = moved.machine;
    if (counted_here) {
      branch(st, j + 1, child_max);
    } else {
      dfs(st, j + 1, child_max);
    }
    if (st.budget_exhausted) return;
    // Optimality fathoming: nothing can beat the root lower bound.
    if (st.incumbent <= st.root_lb + kEps) return;
  }
}

// Visits the node at depth j whose order is built: counts it, stops at the
// budget, records a leaf, and branches when its bound passes.
void dfs(SearchState& st, TaskId j, Time max_load) {
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
  const Slot* const order = st.order.data() + std::size_t{j} * st.m;
  const Time min2 = st.m >= 2 ? order[1].load : order[0].load;
  if (node_bound(st, j, max_load, order[0].load, min2) >= st.incumbent - kEps) return;
  branch(st, j, max_load);
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
    mx->counter("exp.certify.bnb_bound_pruned").add(st.bound_pruned);
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
