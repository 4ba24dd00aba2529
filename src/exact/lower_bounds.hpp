// Analytic lower bounds on the optimal makespan of P||Cmax. These are
// valid for *known* processing times; experiments apply them to actual
// (realized) times to get a certified denominator for competitive ratios.
#pragma once

#include <span>

#include "core/types.hpp"

namespace rdp {

/// Best of three bounds: the average load sum(p) / m; the longest task
/// max(p); and, when n > m, the pairing bound -- some machine runs two
/// of the m+1 largest tasks, so OPT is at least the two smallest of them.
[[nodiscard]] Time makespan_lower_bound(std::span<const Time> p, MachineId m);

}  // namespace rdp
