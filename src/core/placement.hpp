// Phase-1 output: for every task j, the set M_j of machines holding a
// replica of its data. Phase 2 may only run j on a machine in M_j.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace rdp {

class Instance;

/// Replication sets M_j for every task. Each set is stored sorted and
/// duplicate-free, once per distinct set: a task holds only the id of its
/// set. A Placement is only meaningful relative to the Instance it was
/// built for (same task count, machine ids < m).
class Placement {
 public:
  Placement() = default;

  /// Builds from raw sets; sorts and deduplicates each. Throws
  /// std::invalid_argument if any set is empty or contains a machine >= m.
  Placement(std::vector<std::vector<MachineId>> sets, MachineId num_machines);

  /// |M_j| = 1 for all j: task j pinned to `machine_of[j]`. Throws
  /// std::invalid_argument if m = 0 or any machine id is >= m.
  static Placement singleton(const std::vector<MachineId>& machine_of,
                             MachineId num_machines);

  /// |M_j| = m for all j: every task replicated on every machine. Throws
  /// std::invalid_argument if m = 0.
  static Placement everywhere(std::size_t num_tasks, MachineId num_machines);

  /// Group replication: machines are partitioned into `k` equal contiguous
  /// groups (k must divide m); task j is replicated on every machine of
  /// group `group_of[j]` (values in [0, k)).
  static Placement in_groups(const std::vector<MachineId>& group_of, MachineId k,
                             MachineId num_machines);

  [[nodiscard]] std::size_t num_tasks() const noexcept { return set_id_.size(); }
  [[nodiscard]] MachineId num_machines() const noexcept { return machines_; }

  /// The sorted replica set M_j (shared by every task with the same set).
  [[nodiscard]] const std::vector<MachineId>& machines_for(TaskId j) const {
    return distinct_[set_id_.at(j)];
  }

  /// |M_j|.
  [[nodiscard]] std::size_t replication_degree(TaskId j) const {
    return machines_for(j).size();
  }

  /// max_j |M_j| (0 for an empty placement).
  [[nodiscard]] std::size_t max_replication_degree() const noexcept;

  /// True iff machine i holds a replica of task j (binary search).
  [[nodiscard]] bool allows(TaskId j, MachineId i) const;

  /// Total number of replicas, sum_j |M_j|.
  [[nodiscard]] std::size_t total_replicas() const noexcept;

  /// Tasks replicated on each machine, as per-machine sorted task lists.
  [[nodiscard]] std::vector<std::vector<TaskId>> tasks_per_machine() const;

  // Tasks sharing an identical replica set are interned to one canonical
  // set id at construction (ids in first-appearance task order, whichever
  // constructor or factory built the placement). A placement is built once
  // and then dispatched against many realizations in a sweep, so the
  // simulators read the precomputed ids instead of re-hashing every task's
  // set on every run.

  /// Number of distinct replica sets.
  [[nodiscard]] std::uint32_t num_distinct_sets() const noexcept {
    return static_cast<std::uint32_t>(distinct_.size());
  }

  /// Canonical id of task j's replica set, in [0, num_distinct_sets()).
  [[nodiscard]] std::uint32_t set_id(TaskId j) const { return set_id_.at(j); }

  /// Every task's set id, indexed by task: set_id(j) == set_ids()[j].
  [[nodiscard]] std::span<const std::uint32_t> set_ids() const noexcept { return set_id_; }

  /// The shared replica set with canonical id `s`.
  [[nodiscard]] const std::vector<MachineId>& distinct_set(std::uint32_t s) const {
    return distinct_.at(s);
  }

  /// Number of tasks whose replica set has canonical id `s`.
  [[nodiscard]] std::uint32_t set_population(std::uint32_t s) const {
    return set_population_.at(s);
  }

 private:
  /// Task j replicated on the `block_size` contiguous machines starting at
  /// `block_of[j] * block_size`; `what` names a block id in error messages.
  static Placement contiguous_blocks(const std::vector<MachineId>& block_of,
                                     MachineId block_size, MachineId num_machines,
                                     const char* what);

  /// Appends a new distinct set with no tasks yet and returns its id.
  std::uint32_t add_set(std::vector<MachineId> set);

  std::vector<std::vector<MachineId>> distinct_; ///< sorted set per id
  std::vector<std::uint32_t> set_id_;            ///< per task, canonical set id
  std::vector<std::uint32_t> set_population_;    ///< tasks per id
  MachineId machines_ = 0;
};

}  // namespace rdp
