// Winner tree over machine loads: Graham list scheduling's "least-loaded
// machine" query, shared by the phase-1 kernel (algo/list_scheduling) and
// the drain-mode shape path of phase 2 (sim/shape_dispatch).
//
// `bit_ceil(leaves)` leaves, padded with +inf, and every internal node
// holding the load and leaf index of its subtree's least-loaded leaf. A
// tie keeps the left child, whose indices are all smaller, so the root is
// the lexicographic (load, index) minimum -- the machine a (load, id)
// min-heap would pop when leaves are machines in ascending id. Padding
// leaves sit right of every real leaf, so a real leaf wins any tie with
// them.
#pragma once

#include <bit>
#include <cstddef>
#include <limits>
#include <span>

#include "core/types.hpp"

namespace rdp {

class WinnerTree {
 public:
  /// Slots a tree over `leaves` leaves needs in each of its two arrays.
  [[nodiscard]] static std::size_t nodes(std::size_t leaves) noexcept {
    return 2 * std::bit_ceil(leaves);
  }

  /// Builds over `leaves` leaves in caller-owned storage: `load` and `id`
  /// each hold nodes(leaves) slots and outlive the tree. Leaf k starts at
  /// `initial[k]`, or at 0 when `initial` is empty.
  WinnerTree(std::size_t leaves, std::span<const Time> initial, Time* load,
             MachineId* id) noexcept
      : leaves_(std::bit_ceil(leaves)), load_(load), id_(id) {
    for (std::size_t k = 0; k < leaves_; ++k) {
      Time start = std::numeric_limits<Time>::infinity();
      if (k < leaves) start = initial.empty() ? Time{0} : initial[k];
      load_[leaves_ + k] = start;
      id_[leaves_ + k] = static_cast<MachineId>(k);
    }
    for (std::size_t node = leaves_ - 1; node >= 1; --node) play(node);
  }

  /// Index of the least-loaded leaf (the lower index on a tie).
  [[nodiscard]] MachineId min_id() const noexcept { return id_[1]; }

  /// That leaf's load.
  [[nodiscard]] Time min_load() const noexcept { return load_[1]; }

  /// Adds `w` to the least-loaded leaf, replays its leaf-to-root path and
  /// returns the leaf's new load. A one-leaf tree is a running sum.
  Time add_to_min(Time w) noexcept {
    std::size_t node = leaves_ + id_[1];
    load_[node] += w;
    const Time load = load_[node];
    for (node /= 2; node >= 1; node /= 2) play(node);
    return load;
  }

 private:
  // Picks the winner by index and copies it up: selecting an index keeps
  // the compare branch-free (a conditional move), where selecting the
  // doubles themselves compiles to a branch on every level.
  void play(std::size_t node) noexcept {
    const std::size_t left = 2 * node;
    const std::size_t winner = load_[left + 1] < load_[left] ? left + 1 : left;
    load_[node] = load_[winner];
    id_[node] = id_[winner];
  }

  std::size_t leaves_;
  Time* load_;     // index 1 = root, [leaves_, 2 * leaves_) = leaves
  MachineId* id_;  // winner leaf per node
};

}  // namespace rdp
