#include "exact/certify_scale.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "algo/lpt.hpp"
#include "core/order.hpp"
#include "core/scan.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/dual_approx.hpp"
#include "exact/first_fit_tree.hpp"

namespace rdp {

namespace {

// Feasibility-side comparisons get a relative slack (enlarging a bin cap
// can only ease packing, so this never weakens an infeasibility proof);
// the total-load infeasibility proof gets a larger margin that absorbs
// the O(n * ulp) accumulation error of the prefix sums.
constexpr double kRelSlack = 1e-12;
constexpr double kInfeasibleMargin = 1e-9;
constexpr int kInfinity = std::numeric_limits<int>::max() / 2;

// Bisection stops when hi <= lo * (1 + kRelEpsilon) or after
// kMaxIterations probes.
constexpr double kRelEpsilon = 1e-7;
constexpr int kMaxIterations = 64;
// Budgets of the exact config DP (proof 4): memoized states, config
// trials, and enumerated bin configurations. Exhausting any of them
// degrades that probe to feasible-unproven.
constexpr std::size_t kDpStateBudget = 200'000;
constexpr std::size_t kDpWorkBudget = kDpStateBudget * 10;
constexpr std::size_t kConfigBudget = 50'000;

using CountVector = std::vector<std::uint32_t>;

// Distinct rounded big-job values at one probe target, non-increasing.
// Equal rounded values are contiguous runs of the sorted prefix (floor is
// monotone), so `first_pos` pins each class to its run of task positions.
struct BigClasses {
  std::vector<Time> value;
  CountVector count;
  std::vector<std::size_t> first_pos;

  void clear() {
    value.clear();
    count.clear();
    first_pos.clear();
  }
  [[nodiscard]] std::size_t size() const { return value.size(); }
};

void build_classes(std::span<const Time> sorted, std::size_t num_big,
                   Time grain, BigClasses& cls) {
  cls.clear();
  for (std::size_t pos = 0; pos < num_big; ++pos) {
    const Time rounded = std::floor(sorted[pos] / grain) * grain;
    if (!cls.value.empty() && cls.value.back() == rounded) {
      ++cls.count.back();
    } else {
      cls.value.push_back(rounded);
      cls.count.push_back(1);
      cls.first_pos.push_back(pos);
    }
  }
}

// Enumerates every bin configuration (multiset of big classes with total
// rounded size <= cap and at most max_items items) into `flat`, stride =
// cls.size(). Returns false when the count exceeds kConfigBudget.
bool enumerate_configs(const BigClasses& cls, Time cap, unsigned max_items,
                       std::vector<std::uint32_t>& flat) {
  flat.clear();
  const std::size_t num_classes = cls.size();
  std::vector<std::uint32_t> current(num_classes, 0);
  std::size_t num_configs = 0;
  bool within_budget = true;
  const std::function<void(std::size_t, Time, unsigned)> recurse =
      [&](std::size_t idx, Time remaining, unsigned items) {
        if (!within_budget) return;
        if (idx == num_classes) {
          if (items == 0) return;
          if (num_configs >= kConfigBudget) {
            within_budget = false;
            return;
          }
          flat.insert(flat.end(), current.begin(), current.end());
          ++num_configs;
          return;
        }
        const Time val = cls.value[idx];
        std::uint32_t max_c = cls.count[idx];
        if (items + max_c > max_items) max_c = max_items - items;
        for (std::uint32_t c = 0; c <= max_c; ++c) {
          const Time used = static_cast<Time>(c) * val;
          if (used > remaining) break;
          current[idx] = c;
          recurse(idx + 1, remaining - used, items + c);
          if (!within_budget) break;
        }
        current[idx] = 0;
      };
  recurse(0, cap, 0);
  return within_budget;
}

// Exact min-bins over class-count states, memoized. kDpStateBudget caps
// memo entries and kDpWorkBudget caps config trials, so a blow-up
// surfaces as `exhausted()` (feasible-unproven) instead of a stall.
class BinPackDp {
 public:
  BinPackDp(const std::vector<std::uint32_t>& configs_flat, std::size_t stride)
      : flat_(configs_flat), stride_(stride) {}

  [[nodiscard]] int min_bins(const CountVector& demand) {
    CountVector state = demand;
    return solve(state);
  }

  [[nodiscard]] bool exhausted() const { return exhausted_; }

  // Peels off one minimal packing: bins_flat receives min_bins * stride
  // class counts. Requires a prior successful min_bins (memo warm).
  bool reconstruct(const CountVector& demand,
                   std::vector<std::uint32_t>& bins_flat) {
    bins_flat.clear();
    CountVector state = demand;
    int remaining = solve(state);
    if (exhausted_ || remaining >= kInfinity) return false;
    const std::size_t num_configs = stride_ == 0 ? 0 : flat_.size() / stride_;
    while (remaining > 0) {
      bool advanced = false;
      for (std::size_t ci = 0; ci < num_configs && !advanced; ++ci) {
        const std::uint32_t* cfg = flat_.data() + ci * stride_;
        if (!fits(cfg, state)) continue;
        apply(cfg, state, -1);
        const int sub = solve(state);
        if (!exhausted_ && sub + 1 == remaining) {
          bins_flat.insert(bins_flat.end(), cfg, cfg + stride_);
          remaining = sub;
          advanced = true;
        } else {
          apply(cfg, state, +1);
        }
      }
      if (!advanced) return false;
    }
    return true;
  }

 private:
  static bool fits(const std::uint32_t* cfg, const CountVector& state) {
    for (std::size_t v = 0; v < state.size(); ++v) {
      if (cfg[v] > state[v]) return false;
    }
    return true;
  }

  static void apply(const std::uint32_t* cfg, CountVector& state, int sign) {
    for (std::size_t v = 0; v < state.size(); ++v) {
      state[v] = sign > 0 ? state[v] + cfg[v] : state[v] - cfg[v];
    }
  }

  int solve(CountVector& state) {
    if (exhausted_) return kInfinity;
    if (std::all_of(state.begin(), state.end(),
                    [](std::uint32_t c) { return c == 0; })) {
      return 0;
    }
    const auto it = memo_.find(state);
    if (it != memo_.end()) return it->second;
    if (memo_.size() >= kDpStateBudget) {
      exhausted_ = true;
      return kInfinity;
    }
    int best = kInfinity;
    const std::size_t num_configs = stride_ == 0 ? 0 : flat_.size() / stride_;
    for (std::size_t ci = 0; ci < num_configs; ++ci) {
      if (++work_ > kDpWorkBudget) {
        exhausted_ = true;
        return kInfinity;
      }
      const std::uint32_t* cfg = flat_.data() + ci * stride_;
      if (!fits(cfg, state)) continue;
      apply(cfg, state, -1);
      const int sub = solve(state);
      apply(cfg, state, +1);
      if (exhausted_) return kInfinity;
      if (sub < kInfinity && sub + 1 < best) best = sub + 1;
    }
    memo_.emplace(state, best);
    return best;
  }

  const std::vector<std::uint32_t>& flat_;
  std::size_t stride_;
  std::size_t work_ = 0;
  bool exhausted_ = false;
  std::map<CountVector, int> memo_;
};

enum class Verdict {
  kInfeasible,     // sound proof: OPT > target
  kFeasibleNoBig,  // constructible: pure pour, no big jobs
  kFeasibleFfd,    // constructible: FFD packed the rounded bigs
  kFeasibleDp,     // constructible: exact config DP packed them
  kUnproven,       // budget exhausted: may lower hi, never raises lo
};

[[nodiscard]] bool constructible(Verdict v) {
  return v == Verdict::kFeasibleNoBig || v == Verdict::kFeasibleFfd ||
         v == Verdict::kFeasibleDp;
}

struct DecideScratch {
  BigClasses cls;
  FirstFitTree tree;
  std::vector<std::uint32_t> configs;
};

// Number of jobs strictly larger than `threshold` in the sorted prefix.
[[nodiscard]] std::size_t count_big(std::span<const Time> sorted,
                                    Time threshold) {
  const auto split =
      std::partition_point(sorted.begin(), sorted.end(),
                           [&](Time v) { return v > threshold; });
  return static_cast<std::size_t>(split - sorted.begin());
}

// Runs the rounded-big FFD check shared by decide() and materialize():
// identical item sequence (classes expand in sorted order), identical
// capacity, so a decide()-time success replays verbatim.
bool pack_bigs_ffd(const BigClasses& cls, MachineId m, Time cap_eff,
                   FirstFitTree& tree) {
  tree.reset(m);
  for (std::size_t v = 0; v < cls.size(); ++v) {
    for (std::uint32_t c = 0; c < cls.count[v]; ++c) {
      if (tree.place(cls.value[v], cap_eff) == kNoMachine) return false;
    }
  }
  return true;
}

Verdict decide(std::span<const Time> sorted, Time total, MachineId m,
               unsigned kr, Time target, DecideScratch& scratch,
               HsCertifyStats* stats) {
  // Proof 1: a single job exceeds the target (input values are exact).
  if (sorted.front() > target) return Verdict::kInfeasible;
  // Proof 2: average load exceeds the target beyond fp accumulation error.
  if (total > static_cast<Time>(m) * target * (1.0 + kInfeasibleMargin)) {
    return Verdict::kInfeasible;
  }
  const Time big_threshold = target / static_cast<Time>(kr);
  const std::size_t num_big = count_big(sorted, big_threshold);
  if (num_big == 0) return Verdict::kFeasibleNoBig;
  // Proof 3: a makespan-<=target machine holds at most kr jobs > target/kr.
  if (num_big > static_cast<std::size_t>(m) * kr) return Verdict::kInfeasible;

  const Time grain = target / static_cast<Time>(kr * kr);
  build_classes(sorted, num_big, grain, scratch.cls);
  const Time cap_eff = target * (1.0 + kRelSlack);
  if (pack_bigs_ffd(scratch.cls, m, cap_eff, scratch.tree)) {
    return Verdict::kFeasibleFfd;
  }

  // Proof 4: exact bin packing of the rounded instance needs > m bins.
  // Rounding down only eases packing, so infeasibility transfers.
  if (stats != nullptr) ++stats->dp_decisions;
  if (!enumerate_configs(scratch.cls, cap_eff, kr, scratch.configs)) {
    if (stats != nullptr) ++stats->dp_exhaustions;
    return Verdict::kUnproven;
  }
  BinPackDp dp(scratch.configs, scratch.cls.size());
  const int bins = dp.min_bins(scratch.cls.count);
  if (dp.exhausted()) {
    if (stats != nullptr) ++stats->dp_exhaustions;
    return Verdict::kUnproven;
  }
  return bins > static_cast<int>(m) ? Verdict::kInfeasible
                                    : Verdict::kFeasibleDp;
}

}  // namespace

CertifiedCmax hs_certified_cmax(std::span<const Time> p, MachineId m,
                                unsigned precision_k, HsCertifyStats* stats) {
  if (m == 0) throw std::invalid_argument("hs_certified_cmax: m must be >= 1");
  if (precision_k < 2) {
    throw std::invalid_argument("hs_certified_cmax: precision_k must be >= 2");
  }
  require_finite_times(p, "hs_certified_cmax");
  CertifiedCmax result;
  result.backend = CertifyBackend::kPtas;
  result.assignment = Assignment(p.size());
  if (p.empty()) {
    result.exact = true;
    return result;
  }

  // Sorted non-increasing view; `order` maps sorted position -> original
  // index (empty = identity, for input already in LPT order).
  std::vector<Time> sorted_storage;
  std::vector<TaskId> order;
  std::span<const Time> sorted = p;
  if (!std::is_sorted(p.begin(), p.end(), std::greater<Time>())) {
    order = order_by_time(p, SortDirection::kDescending);
    sorted_storage.resize(p.size());
    for (std::size_t r = 0; r < p.size(); ++r) sorted_storage[r] = p[order[r]];
    sorted = sorted_storage;
  }
  const auto original_index = [&](std::size_t pos) {
    return order.empty() ? static_cast<TaskId>(pos) : order[pos];
  };

  if (!(sorted.front() > 0)) {
    // All-zero (or degenerate non-positive) instance: OPT is 0 and any
    // complete assignment achieves it.
    std::fill(result.assignment.machine_of.begin(),
              result.assignment.machine_of.end(), MachineId{0});
    result.exact = true;
    return result;
  }

  const std::size_t n = sorted.size();
  std::vector<Time> prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + sorted[i];
  const Time total = prefix[n];
  const Time avg = total / static_cast<Time>(m);

  // Analytic bracket: lower = max(avg, max, pairing); upper = Graham's
  // list-scheduling bound avg + max >= OPT.
  Time lo = std::max(avg, sorted.front());
  if (n > m) lo = std::max(lo, sorted[m - 1] + sorted[m]);
  Time hi = std::max(avg + sorted.front(), lo);

  const unsigned kr = precision_k + 1;
  DecideScratch scratch;
  Time t_construct = 0;
  Verdict construct_kind = Verdict::kUnproven;
  bool have_construct = false;
  for (int iter = 0; iter < kMaxIterations && hi > lo * (1.0 + kRelEpsilon);
       ++iter) {
    const Time target = 0.5 * (lo + hi);
    const Verdict verdict = decide(sorted, total, m, kr, target, scratch, stats);
    if (stats != nullptr) ++stats->iterations;
    if (verdict == Verdict::kInfeasible) {
      lo = target;
      if (stats != nullptr) ++stats->infeasible_proofs;
    } else {
      hi = target;
      if (constructible(verdict)) {
        // hi only decreases, so the last constructible probe is the
        // smallest target we know how to schedule.
        t_construct = target;
        construct_kind = verdict;
        have_construct = true;
      }
    }
  }

  bool materialized = false;
  std::vector<Time> loads(m, 0);
  if (have_construct) {
    const Time target = t_construct;
    const Time big_threshold = target / static_cast<Time>(kr);
    const std::size_t num_big =
        construct_kind == Verdict::kFeasibleNoBig ? 0
                                                  : count_big(sorted, big_threshold);
    if (stats != nullptr) stats->big_jobs = num_big;
    const Time cap_eff = target * (1.0 + kRelSlack);
    materialized = true;
    if (num_big > 0) {
      const Time grain = target / static_cast<Time>(kr * kr);
      build_classes(sorted, num_big, grain, scratch.cls);
      if (construct_kind == Verdict::kFeasibleFfd) {
        // Replay of the decide()-time FFD: same items, same capacity,
        // same tree, so every placement succeeds.
        scratch.tree.reset(m);
        for (std::size_t pos = 0; pos < num_big && materialized; ++pos) {
          const Time rounded = std::floor(sorted[pos] / grain) * grain;
          const MachineId bin = scratch.tree.place(rounded, cap_eff);
          if (bin == kNoMachine) {
            materialized = false;
            break;
          }
          result.assignment.machine_of[original_index(pos)] = bin;
          loads[bin] += sorted[pos];
        }
      } else {  // Verdict::kFeasibleDp
        std::vector<std::uint32_t> bins_flat;
        materialized =
            enumerate_configs(scratch.cls, cap_eff, kr, scratch.configs);
        if (materialized) {
          BinPackDp dp(scratch.configs, scratch.cls.size());
          const int bins = dp.min_bins(scratch.cls.count);
          materialized = !dp.exhausted() && bins <= static_cast<int>(m) &&
                         dp.reconstruct(scratch.cls.count, bins_flat);
        }
        if (materialized) {
          const std::size_t stride = scratch.cls.size();
          std::vector<std::size_t> cursor(scratch.cls.first_pos);
          const std::size_t num_bins = stride == 0 ? 0 : bins_flat.size() / stride;
          for (std::size_t bin = 0; bin < num_bins; ++bin) {
            const std::uint32_t* cfg = bins_flat.data() + bin * stride;
            const MachineId machine = static_cast<MachineId>(bin);
            for (std::size_t v = 0; v < stride; ++v) {
              for (std::uint32_t c = 0; c < cfg[v]; ++c) {
                const std::size_t pos = cursor[v]++;
                result.assignment.machine_of[original_index(pos)] = machine;
                loads[machine] += sorted[pos];
              }
            }
          }
        }
      }
    }
    if (materialized) {
      // Bulk pour: machine i drinks the longest run of remaining small
      // jobs whose cumulative size lifts it to the target -- one
      // prefix-sum binary search per machine instead of one comparison
      // per job.
      std::size_t pos = num_big;
      for (MachineId i = 0; i < m && pos < n; ++i) {
        if (loads[i] >= target) continue;
        const Time want = prefix[pos] + (target - loads[i]);
        const auto it =
            std::lower_bound(prefix.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                             prefix.end(), want);
        const std::size_t stop =
            it == prefix.end() ? n
                               : static_cast<std::size_t>(it - prefix.begin());
        for (std::size_t q = pos; q < stop; ++q) {
          result.assignment.machine_of[original_index(q)] = i;
        }
        loads[i] += prefix[stop] - prefix[pos];
        pos = stop;
      }
      if (pos < n) {
        // Only reachable with (near-)zero leftover mass: every machine
        // is at the target yet jobs remain, so their total is within fp
        // noise of zero. Park them on the lightest machine.
        MachineId lightest = 0;
        for (MachineId i = 1; i < m; ++i) {
          if (loads[i] < loads[lightest]) lightest = i;
        }
        for (; pos < n; ++pos) {
          result.assignment.machine_of[original_index(pos)] = lightest;
          loads[lightest] += sorted[pos];
        }
      }
    }
  }
  if (!materialized) {
    // No constructible probe (every feasible verdict was budget-starved)
    // or a replay mismatch: fall back to LPT, which is always complete.
    const GreedyScheduleResult lpt = lpt_schedule(p, m);
    result.assignment = lpt.assignment;
  }

  // Measure the makespan from the assignment in task order. The
  // construction above tracks loads in sorted order (and the bulk pour
  // adds prefix-sum differences), which can differ from a caller's
  // task-order recomputation by an ulp; re-summing here makes `upper`
  // exactly reproducible from (assignment, p).
  std::fill(loads.begin(), loads.end(), Time{0});
  for (std::size_t j = 0; j < p.size(); ++j) {
    loads[result.assignment.machine_of[j]] += p[j];
  }
  result.upper = max_scan(loads);
  result.lower = std::min(lo, result.upper);
  if (result.upper <= result.lower * (1.0 + kRelSlack)) {
    result.exact = true;
    result.lower = result.upper;
  }
  return result;
}

}  // namespace rdp
