#include "core/placement.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace rdp {

namespace {

constexpr std::uint32_t kNoSet = UINT32_MAX;

/// Order-insensitive mix of the (sorted, deduplicated) set contents.
/// Per-element finalizers are independent, so the hash pipelines instead
/// of forming one long multiply chain; collisions are harmless (interning
/// always confirms with a full set comparison).
std::uint64_t hash_machine_set(const std::vector<MachineId>& set) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ set.size();
  for (MachineId i : set) {
    std::uint64_t z = static_cast<std::uint64_t>(i) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h ^= z ^ (z >> 31);
  }
  return h;
}

void require_machines(MachineId num_machines) {
  if (num_machines == 0) {
    throw std::invalid_argument("Placement: need at least one machine");
  }
}

}  // namespace

Placement::Placement(std::vector<std::vector<MachineId>> sets, MachineId num_machines)
    : machines_(num_machines) {
  require_machines(machines_);
  for (auto& set : sets) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
    if (set.empty()) {
      throw std::invalid_argument("Placement: every task needs at least one replica");
    }
    if (set.back() >= machines_) {
      throw std::invalid_argument("Placement: machine id " +
                                  std::to_string(set.back()) + " out of range");
    }
  }

  // Intern identical sets: open-addressed table of canonical ids keyed by
  // the set hash, confirmed by full comparison against the stored set
  // (hash collisions must never merge different sets). A first-seen set
  // moves into the table; duplicates are dropped with `sets`.
  const std::size_t n = sets.size();
  set_id_.resize(n);
  const std::size_t table_cap = std::max<std::size_t>(64, std::bit_ceil(2 * n + 1));
  std::vector<std::uint32_t> table(table_cap, kNoSet);
  std::vector<std::uint64_t> id_hash;
  for (TaskId j = 0; j < n; ++j) {
    const std::uint64_t h = hash_machine_set(sets[j]);
    std::size_t idx = h & (table_cap - 1);
    std::uint32_t s;
    while (true) {
      s = table[idx];
      if (s == kNoSet) {
        s = add_set(std::move(sets[j]));
        id_hash.push_back(h);
        table[idx] = s;
        break;
      }
      if (id_hash[s] == h && distinct_[s] == sets[j]) break;
      idx = (idx + 1) & (table_cap - 1);
    }
    set_id_[j] = s;
    ++set_population_[s];
  }
}

std::uint32_t Placement::add_set(std::vector<MachineId> set) {
  distinct_.push_back(std::move(set));
  set_population_.push_back(0);
  return static_cast<std::uint32_t>(distinct_.size() - 1);
}

Placement Placement::contiguous_blocks(const std::vector<MachineId>& block_of,
                                       MachineId block_size, MachineId num_machines,
                                       const char* what) {
  require_machines(num_machines);
  Placement p;
  p.machines_ = num_machines;
  p.set_id_.resize(block_of.size());
  // Ids in first-appearance task order, exactly as the interning
  // constructor assigns them.
  std::vector<std::uint32_t> id_of_block(num_machines / block_size, kNoSet);
  for (std::size_t j = 0; j < block_of.size(); ++j) {
    const MachineId b = block_of[j];
    if (b >= id_of_block.size()) {
      throw std::invalid_argument(std::string("Placement: ") + what + " " +
                                  std::to_string(b) + " out of range");
    }
    std::uint32_t& s = id_of_block[b];
    if (s == kNoSet) {
      std::vector<MachineId> set(block_size);
      std::iota(set.begin(), set.end(), b * block_size);
      s = p.add_set(std::move(set));
    }
    p.set_id_[j] = s;
    ++p.set_population_[s];
  }
  return p;
}

Placement Placement::singleton(const std::vector<MachineId>& machine_of,
                               MachineId num_machines) {
  return contiguous_blocks(machine_of, 1, num_machines, "machine id");
}

Placement Placement::everywhere(std::size_t num_tasks, MachineId num_machines) {
  require_machines(num_machines);
  Placement p;
  p.machines_ = num_machines;
  p.set_id_.assign(num_tasks, 0);
  if (num_tasks > 0) {
    std::vector<MachineId> all(num_machines);
    std::iota(all.begin(), all.end(), MachineId{0});
    p.add_set(std::move(all));
    p.set_population_[0] = static_cast<std::uint32_t>(num_tasks);
  }
  return p;
}

Placement Placement::in_groups(const std::vector<MachineId>& group_of, MachineId k,
                               MachineId num_machines) {
  if (k == 0 || num_machines % k != 0) {
    throw std::invalid_argument("Placement::in_groups: k must divide m");
  }
  return contiguous_blocks(group_of, num_machines / k, num_machines, "group id");
}

std::size_t Placement::max_replication_degree() const noexcept {
  std::size_t best = 0;
  for (const auto& set : distinct_) best = std::max(best, set.size());
  return best;
}

bool Placement::allows(TaskId j, MachineId i) const {
  const auto& set = machines_for(j);
  return std::binary_search(set.begin(), set.end(), i);
}

std::size_t Placement::total_replicas() const noexcept {
  std::size_t sum = 0;
  for (std::uint32_t s = 0; s < distinct_.size(); ++s) {
    sum += distinct_[s].size() * set_population_[s];
  }
  return sum;
}

std::vector<std::vector<TaskId>> Placement::tasks_per_machine() const {
  std::vector<std::vector<TaskId>> out(machines_);
  for (TaskId j = 0; j < set_id_.size(); ++j) {
    for (MachineId i : distinct_[set_id_[j]]) out[i].push_back(j);
  }
  return out;
}

}  // namespace rdp
