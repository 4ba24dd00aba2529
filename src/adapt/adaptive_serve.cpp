#include "adapt/adaptive_serve.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/instance.hpp"
#include "core/order.hpp"
#include "core/realization.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "serve/streaming_dispatcher.hpp"

namespace rdp {

AdaptiveServeResult serve_adaptive(const Instance& instance,
                                   const Realization& actual,
                                   std::span<const Time> arrivals,
                                   const AdaptiveServeOptions& options,
                                   std::shared_ptr<AlphaEstimator> estimator) {
  const std::size_t n = instance.num_tasks();
  const MachineId m = instance.num_machines();
  if (actual.actual.size() != n || arrivals.size() != n) {
    throw std::invalid_argument(
        "serve_adaptive: realization/arrivals must match the instance");
  }
  if (options.epoch_tasks == 0) {
    throw std::invalid_argument("serve_adaptive: epoch_tasks must be >= 1");
  }
  if (!(options.drift_threshold >= 0.0)) {
    throw std::invalid_argument(
        "serve_adaptive: drift_threshold must be >= 0");
  }
  for (const Time t : arrivals) {
    if (!(t >= 0.0) || !std::isfinite(t)) {
      throw std::invalid_argument(
          "serve_adaptive: arrivals must be finite and non-negative");
    }
  }
  if (!estimator) {
    estimator = std::make_shared<AlphaEstimator>(options.adapt.estimator);
  }

  AdaptiveServeResult result;
  result.schedule.assignment = Assignment(n);
  result.schedule.start.assign(n, 0);
  result.schedule.finish.assign(n, 0);
  if (n == 0) return result;

  // Admission order: by release time, ties by task id (the order the
  // streaming dispatcher itself admits equal-time arrivals).
  const std::vector<TaskId> order = order_by_time(arrivals, SortDirection::kAscending);

  const TaskClassifier classifier(instance, estimator->num_classes());
  const std::size_t num_classes = estimator->num_classes();
  std::vector<MachineId> degrees(num_classes, 0);
  std::vector<Time> machine_ready(m, 0);
  double alpha_planned = 0.0;  // 0 = never planned
  obs::MetricsRegistry* mx = obs::metrics();

  for (std::size_t begin = 0; begin < n; begin += options.epoch_tasks) {
    const std::size_t count = std::min(options.epoch_tasks, n - begin);
    const double alpha_now = estimator->alpha_hat_global(instance.alpha());
    // alpha_hat as a gauge gives the sampler JSONL a per-epoch time
    // series; the histogram below keeps the whole-run distribution.
    if (mx != nullptr) mx->gauge("adapt.alpha_hat_now").set(alpha_now);

    AdaptiveEpoch epoch;
    epoch.first_task = begin;
    epoch.tasks = count;
    epoch.alpha_hat = alpha_now;
    const bool drifted =
        alpha_planned > 0.0 &&
        std::abs(alpha_now / alpha_planned - 1.0) > options.drift_threshold;
    if (alpha_planned == 0.0 || drifted) {
      for (std::size_t c = 0; c < num_classes; ++c) {
        const double alpha_c = estimator->alpha_hat(c, instance.alpha());
        degrees[c] = select_replication_degree(alpha_c, m, degrees[c],
                                               options.adapt.bound_slack,
                                               options.adapt.hysteresis);
        if (mx != nullptr) {
          mx->histogram("adapt.alpha_hat").observe(alpha_c);
          mx->histogram("adapt.k_chosen")
              .observe(static_cast<double>(degrees[c]));
        }
      }
      if (drifted) {
        epoch.replanned = true;
        ++result.replans;
      }
      alpha_planned = alpha_now;
    }
    epoch.min_degree = *std::min_element(degrees.begin(), degrees.end());
    epoch.max_degree = *std::max_element(degrees.begin(), degrees.end());

    // The epoch's tasks as a sub-instance, absolute times kept.
    std::vector<Task> sub_tasks(count);
    std::vector<Time> sub_arrivals(count);
    Realization sub_actual;
    sub_actual.actual.resize(count);
    for (std::size_t t = 0; t < count; ++t) {
      const TaskId j = order[begin + t];
      sub_tasks[t] = instance.tasks()[j];
      sub_arrivals[t] = arrivals[j];
      sub_actual.actual[t] = actual.actual[j];
    }
    const Instance sub(std::move(sub_tasks), m, instance.alpha());
    const Placement placement =
        place_adaptive_blocks(sub, classifier, degrees, machine_ready);
    std::vector<TaskId> priority(count);
    std::iota(priority.begin(), priority.end(), TaskId{0});

    // Mask the flight recorder during the sub-run: serve_stream would
    // emit the epoch's *local* task ids 0..count-1. The epoch's events
    // are re-emitted below under global ids instead.
    obs::TimelineRecorder* const tl = obs::timeline();
    StreamingDispatchResult served;
    {
      obs::TimelineScope mask(nullptr);
      served = serve_stream(sub, placement, sub_actual, priority, sub_arrivals,
                            machine_ready);
    }
    result.peak_backlog = std::max(result.peak_backlog, served.peak_backlog);
    if (tl != nullptr) {
      const auto block = tl->reserve(3 * count);
      std::size_t cursor = 0;
      for (TaskId t = 0; t < count && cursor < block.count; ++t, ++cursor) {
        block.when[cursor] = sub_arrivals[t];
        block.task[cursor] = order[begin + t];
        block.machine[cursor] = obs::kTimelineNone;
        block.kind[cursor] =
            static_cast<std::uint8_t>(obs::TimelineEventKind::kArrive);
      }
      for (TaskId t = 0; t < count && cursor < block.count; ++t, ++cursor) {
        block.when[cursor] = served.schedule.start[t];
        block.task[cursor] = order[begin + t];
        block.machine[cursor] = served.schedule.assignment[t];
        block.kind[cursor] =
            static_cast<std::uint8_t>(obs::TimelineEventKind::kStart);
      }
      for (TaskId t = 0; t < count && cursor < block.count; ++t, ++cursor) {
        block.when[cursor] = served.schedule.finish[t];
        block.task[cursor] = order[begin + t];
        block.machine[cursor] = served.schedule.assignment[t];
        block.kind[cursor] =
            static_cast<std::uint8_t>(obs::TimelineEventKind::kFinish);
      }
    }

    for (TaskId t = 0; t < count; ++t) {
      const TaskId j = order[begin + t];
      const MachineId i = served.schedule.assignment[t];
      result.schedule.assignment.machine_of[j] = i;
      result.schedule.start[j] = served.schedule.start[t];
      result.schedule.finish[j] = served.schedule.finish[t];
      if (i != kNoMachine) {
        machine_ready[i] = std::max(machine_ready[i], served.schedule.finish[t]);
      }
      estimator->observe(classifier.class_of(sub.estimate(t)), sub.estimate(t),
                         sub_actual.actual[t]);
    }
    result.epochs.push_back(epoch);
  }

  result.makespan = result.schedule.makespan();
  result.final_alpha_hat = estimator->alpha_hat_global(instance.alpha());
  return result;
}

}  // namespace rdp
