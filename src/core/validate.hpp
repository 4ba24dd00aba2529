// Cross-object consistency checks used by tests and by public entry points
// that accept user-built objects. Checks return a diagnostic string:
// empty == valid, otherwise a human-readable reason.
#pragma once

#include <string>

#include "core/types.hpp"

namespace rdp {

class Instance;
class Placement;
struct Realization;
struct Schedule;

/// Placement matches the instance: one set per task, machine ids < m.
[[nodiscard]] std::string check_placement(const Instance& instance,
                                          const Placement& placement);

/// Schedule is internally consistent: finish = start + actual, no two
/// tasks overlap on a machine, start times are non-negative, and the
/// semi-clairvoyant property holds (a machine never idles while it still
/// has work, i.e. per-machine execution is back-to-back from time 0 --
/// which is what every greedy dispatcher in this library produces).
[[nodiscard]] std::string check_schedule(const Instance& instance,
                                         const Realization& realization,
                                         const Schedule& schedule,
                                         bool require_no_idle = false);

/// Convenience: throws std::invalid_argument with the diagnostic when the
/// string is non-empty.
void throw_if_invalid(const std::string& diagnostic);

}  // namespace rdp
