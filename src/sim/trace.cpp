#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/instance.hpp"
#include "core/order.hpp"
#include "core/schedule.hpp"

namespace rdp {

std::string render_gantt(const Instance& instance, const Schedule& schedule,
                         int width) {
  std::ostringstream os;
  const Time horizon = schedule.makespan();
  if (horizon <= 0 || width <= 8) return "(empty schedule)\n";
  const double scale = static_cast<double>(width) / horizon;

  const auto per_machine = schedule.assignment.tasks_per_machine(
      instance.num_machines(), order_by_time(schedule.start, SortDirection::kAscending));
  for (MachineId i = 0; i < instance.num_machines(); ++i) {
    const std::vector<TaskId>& tasks = per_machine[i];
    std::string row(static_cast<std::size_t>(width), '.');
    for (TaskId j : tasks) {
      auto from = static_cast<std::size_t>(std::floor(schedule.start[j] * scale));
      auto to = static_cast<std::size_t>(std::ceil(schedule.finish[j] * scale));
      from = std::min(from, static_cast<std::size_t>(width) - 1);
      to = std::clamp(to, from + 1, static_cast<std::size_t>(width));
      const char glyph = static_cast<char>('A' + static_cast<int>(j % 26));
      for (std::size_t c = from; c < to; ++c) row[c] = glyph;
    }
    os << "m" << i << " |" << row << "|\n";
  }
  os << "    0";
  for (int c = 0; c < width - 6; ++c) os << ' ';
  os << "t=" << horizon << "\n";
  return os.str();
}

std::string render_trace(const DispatchTrace& trace) {
  std::ostringstream os;
  for (const DispatchEvent& e : trace.events) {
    os << "t=" << e.when << "  task " << e.task << " -> machine " << e.machine
       << "  (actual " << e.actual << ")\n";
  }
  return os.str();
}

}  // namespace rdp
