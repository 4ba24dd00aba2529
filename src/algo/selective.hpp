// Selective replication -- the paper's closing future-work item: "A more
// realistic model would introduce a cost of replicating a task... This
// would allow to replicate only some critical tasks and limit memory
// usage."
//
// Two policies operationalize that idea:
//  * CriticalTasksPlacement: replicate the largest-estimate tasks (the
//    ones that dominate the adversary's leverage) on every machine; pin
//    the rest with LPT. Parameterized by the fraction of tasks treated
//    as critical.
//  * MemoryBudgetPlacement: pin everything with LPT, then spend a global
//    replica budget (in units of task size) on extra replicas, largest
//    estimates first, widening each chosen task's replica set to all
//    machines while the budget lasts.
#pragma once

#include <cstddef>

#include "algo/placement_policies.hpp"
#include "algo/strategy.hpp"
#include "core/types.hpp"

namespace rdp {

/// Replicates the `critical_fraction` largest-estimate tasks everywhere;
/// the rest are pinned to single machines by LPT over the estimates.
class CriticalTasksPlacement final : public PlacementPolicy {
 public:
  /// \param critical_fraction fraction of tasks (by count, rounded up
  ///        when positive) replicated everywhere; must be in [0, 1].
  explicit CriticalTasksPlacement(double critical_fraction);

  [[nodiscard]] Placement place(const Instance& instance) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double fraction_;
};

/// Pins every task by LPT, then widens tasks to full replication in
/// non-increasing estimate order while the *extra* memory spent (size *
/// (m-1) per widened task) fits in `extra_memory_budget`.
class MemoryBudgetPlacement final : public PlacementPolicy {
 public:
  /// \param extra_memory_budget total size units available for replicas
  ///        beyond the one mandatory copy per task; must be >= 0.
  explicit MemoryBudgetPlacement(double extra_memory_budget);

  [[nodiscard]] Placement place(const Instance& instance) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double budget() const noexcept { return budget_; }

 private:
  double budget_;
};

/// Convenience strategies: selective placements + online LPT dispatch
/// (critical tasks can move at run time; pinned tasks cannot).
[[nodiscard]] TwoPhaseStrategy make_critical_tasks(double critical_fraction);
[[nodiscard]] TwoPhaseStrategy make_memory_budget(double extra_memory_budget);

}  // namespace rdp
