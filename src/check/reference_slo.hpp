// The two-sort SLO evaluation, kept as an oracle for evaluate_slo
// (serve/slo.hpp). Both task orders come from std::sort with an
// indirect (time, id) comparator, and one merged +1/-1 sweep over
// (arrival, start) events tracks the backlog, exactly as evaluate_slo
// was written before it grouped tasks by window. The fuzzer and the SLO
// tests hold evaluate_slo to it bit for bit.
//
// Nothing here is used by production code paths.
#pragma once

#include <span>
#include <string>

#include "core/types.hpp"
#include "serve/slo.hpp"

namespace rdp {
struct Schedule;
}

namespace rdp::check {

/// evaluate_slo by two sorts and a merged event sweep. Gauge publishing
/// and input validation are left out; every report field is kept. The
/// response ring is never clamped, so a huge sustain allocates
/// sustain - 1 intervals.
[[nodiscard]] SloReport reference_evaluate_slo(const Schedule& schedule,
                                               std::span<const Time> arrivals,
                                               const SloSpec& spec);

/// First divergence between two SLO reports, every window field and
/// total compared by bit pattern; empty when they are bit-identical.
[[nodiscard]] std::string diff_slo_reports(const SloReport& a, const SloReport& b);

}  // namespace rdp::check
