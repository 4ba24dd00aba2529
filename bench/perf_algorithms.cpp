// Extension experiment C: google-benchmark throughput of the library's
// kernels -- offline LPT, the online dispatcher across placement shapes,
// the exact solvers, and MULTIFIT -- to document the cost of each moving
// part and its scaling in n and m. Also measures the observability layer:
// BM_DispatchEverywhere (no sink attached -- the compiled-in hooks on
// their no-op path) vs BM_DispatchObsMetrics / BM_DispatchObsFull (sinks
// attached), plus BM_SweepObservability for the full pipeline
// (thread pool + parallel sweep + metrics + tracing).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "algo/dispatch_policies.hpp"
#include "algo/lpt.hpp"
#include "algo/strategy.hpp"
#include "binary_heap_queue.hpp"
#include "check/reference_dispatcher.hpp"
#include "core/instance.hpp"
#include "core/realization.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/certify.hpp"
#include "exact/dual_approx.hpp"
#include "exp/sweep.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "perturb/stochastic.hpp"
#include "sim/workspace.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rdp;

Instance bench_instance(std::size_t n, MachineId m) {
  WorkloadParams params;
  params.num_tasks = n;
  params.num_machines = m;
  params.alpha = 1.5;
  params.seed = 42;
  return uniform_workload(params, 1.0, 100.0);
}

void BM_LptSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<MachineId>(state.range(1));
  const Instance inst = bench_instance(n, m);
  const auto estimates = inst.estimates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lpt_schedule(estimates, m));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LptSchedule)
    ->Args({1000, 16})
    ->Args({10000, 16})
    ->Args({100000, 16})
    ->Args({100000, 256});

void BM_ListSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 16);
  const auto estimates = inst.estimates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(estimates, 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ListSchedule)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DispatchEverywhere(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<MachineId>(state.range(1));
  const Instance inst = bench_instance(n, m);
  const Placement placement = Placement::everywhere(n, m);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch_online(inst, placement, actual, priority));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DispatchEverywhere)->Args({1000, 16})->Args({10000, 16})->Args({10000, 64});

void BM_DispatchGroups(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const MachineId m = 16;
  const auto k = static_cast<MachineId>(state.range(1));
  const Instance inst = bench_instance(n, m);
  const Placement placement = LsGroupPlacement(k).place(inst);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const auto priority = make_priority(inst, PriorityRule::kInputOrder);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch_online(inst, placement, actual, priority));
  }
}
BENCHMARK(BM_DispatchGroups)->Args({10000, 2})->Args({10000, 4})->Args({10000, 16});

void BM_BranchAndBound(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 4);
  const auto estimates = inst.estimates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(branch_and_bound_cmax(estimates, 4));
  }
}
BENCHMARK(BM_BranchAndBound)->Arg(12)->Arg(16)->Arg(20);

// ----- certification engine: cold vs cached vs warm batch vs parallel ---
// All four run over the same realizations of one instance, so the numbers
// are directly comparable: BM_CertifyCold is the per-denominator price the
// experiment harness used to pay, the others are what the engine layers
// (memo cache, warm-started batch dedup, thread-pool fan-out) recover.

std::vector<std::vector<Time>> certify_inputs(std::size_t count, std::size_t n,
                                              MachineId m) {
  const Instance inst = bench_instance(n, m);
  std::vector<std::vector<Time>> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    inputs.push_back(realize(inst, NoiseModel::kUniform, i + 1).actual);
  }
  return inputs;
}

void BM_CertifyCold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inputs = certify_inputs(16, n, 8);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        certified_cmax(inputs[next], 8, /*node_budget=*/200'000));
    next = (next + 1) % inputs.size();
  }
}
BENCHMARK(BM_CertifyCold)->Arg(16)->Arg(20)->Arg(24);

void BM_CertifyCachedHit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inputs = certify_inputs(16, n, 8);
  CertifyEngine engine;
  CertifyOptions options;
  options.node_budget = 200'000;
  for (const auto& p : inputs) benchmark::DoNotOptimize(engine.certify(p, 8, options));
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.certify(inputs[next], 8, options));
    next = (next + 1) % inputs.size();
  }
}
BENCHMARK(BM_CertifyCachedHit)->Arg(16)->Arg(20)->Arg(24);

void BM_CertifyBatchWarm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inputs = certify_inputs(16, n, 8);
  std::vector<CertifyRequest> batch;
  for (const auto& p : inputs) batch.push_back({p, 8});
  CertifyOptions options;
  options.node_budget = 200'000;
  for (auto _ : state) {
    CertifyEngine engine;  // fresh: measures warm-started solves, not hits
    benchmark::DoNotOptimize(engine.certify_batch(batch, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK(BM_CertifyBatchWarm)->Arg(16)->Arg(20)->Arg(24);

void BM_CertifyBatchParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto inputs = certify_inputs(16, n, 8);
  std::vector<CertifyRequest> batch;
  for (const auto& p : inputs) batch.push_back({p, 8});
  ThreadPool pool(8);
  CertifyOptions options;
  options.node_budget = 200'000;
  options.pool = &pool;
  for (auto _ : state) {
    CertifyEngine engine;
    benchmark::DoNotOptimize(engine.certify_batch(batch, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK(BM_CertifyBatchParallel)->Arg(16)->Arg(20)->Arg(24);

void BM_Multifit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 16);
  const auto estimates = inst.estimates();
  for (auto _ : state) {
    benchmark::DoNotOptimize(multifit_cmax(estimates, 16));
  }
}
BENCHMARK(BM_Multifit)->Arg(1000)->Arg(10000);

// The same dispatch as BM_DispatchEverywhere/1000/16 but with a metrics
// registry (and optionally a tracer) attached. Comparing against
// BM_DispatchEverywhere quantifies the enabled cost; comparing
// BM_DispatchEverywhere against a build without the hooks quantifies the
// disabled cost (expected: indistinguishable -- the no-op path is one
// inlined atomic load + dead branch per dispatch call).
void BM_DispatchObsMetrics(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 16);
  const Placement placement = Placement::everywhere(n, 16);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  obs::MetricsRegistry registry;
  obs::ObservabilityScope scope(&registry, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch_online(inst, placement, actual, priority));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DispatchObsMetrics)->Arg(1000)->Arg(10000);

void BM_DispatchObsFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 16);
  const Placement placement = Placement::everywhere(n, 16);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ObservabilityScope scope(&registry, &tracer);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatch_online(inst, placement, actual, priority));
    if (tracer.size() > 100000) tracer.clear();  // bound memory, off the hot path
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DispatchObsFull)->Arg(1000)->Arg(10000);

// Full pipeline: parallel sweep of dispatch simulations with metrics and
// tracing attached -- the shape of an instrumented experiment run.
// Reports cells/sec via the registry's own gauge.
void BM_SweepObservability(benchmark::State& state) {
  const auto cells = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(500, 8);
  const Placement placement = Placement::everywhere(500, 8);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  std::vector<std::uint64_t> seeds(cells);
  for (std::size_t t = 0; t < cells; ++t) seeds[t] = t + 1;
  const std::vector<SweepCell> grid = make_grid({8}, {1.5}, seeds);
  ThreadPool pool(4);
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  obs::ObservabilityScope scope(&registry, &tracer);
  std::vector<double> results(cells, 0.0);
  for (auto _ : state) {
    run_sweep_parallel(pool, grid, [&](const SweepCell& cell) {
      const Realization actual = realize(inst, NoiseModel::kUniform, cell.seed);
      results[cell.index] =
          dispatch_online(inst, placement, actual, priority).schedule.makespan();
    });
    if (tracer.size() > 100000) tracer.clear();
  }
  state.counters["cells_per_sec"] = registry.gauge("sweep.cells_per_sec").value();
}
BENCHMARK(BM_SweepObservability)->Arg(64);

// ----- histogram micro-costs ------------------------------------------
// Histogram::observe is the new per-sample price of every value() call on
// the hot metric sites (one relaxed fetch_add on a bucket + a short
// mutex-guarded Welford update). BM_HistogramObserve is that price in
// isolation; BM_HistogramObserveContended is the same under thread
// contention on one histogram; BM_HistogramSummary is the read side
// (bucket scan + three quantiles), paid once per snapshot, not per sample.
// BM_DispatchEverywhere above stays the disabled-path reference: it runs
// the identical instrumented code with no sink installed.

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram histogram;
  // A fixed pseudo-random walk over several octaves, so buckets vary like
  // real latency samples rather than hammering one counter.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    histogram.observe(1e-6 * static_cast<double>(x % 100000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

void BM_HistogramObserveContended(benchmark::State& state) {
  static obs::Histogram histogram;
  std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(state.thread_index());
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    histogram.observe(1e-6 * static_cast<double>(x % 100000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserveContended)->Threads(4);

void BM_HistogramSummary(benchmark::State& state) {
  obs::Histogram histogram;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    histogram.observe(1e-6 * static_cast<double>(x % 100000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram.summary());
  }
}
BENCHMARK(BM_HistogramSummary);

// ----- sim-core rewrite: SoA workspace + calendar queue ----------------
// BM_SimDispatchWorkspace is the rewritten hot path driven the way the
// sweep drivers drive it: one thread-local workspace + result reused
// across runs, zero steady-state allocation. BM_SimDispatchReference is
// the retained pre-rewrite core (check/reference_dispatcher.*) on the
// same inputs -- the pair documents the rewrite's speedup in-tree.
// BM_SimEventQueueHold / BM_SimLegacyQueueHold do the same for the event
// queue alone under the classic hold model: SimEventQueue against the
// std::priority_queue binary heap it replaced.

void BM_SimDispatchWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<MachineId>(state.range(1));
  const Instance inst = bench_instance(n, m);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % 8;
  const Placement placement = Placement::in_groups(group_of, 8, m);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  DispatchResult out;
  for (auto _ : state) {
    dispatch_online(inst, placement, actual, priority, {}, {},
                    thread_workspace(), out);
    benchmark::DoNotOptimize(out.schedule.finish.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimDispatchWorkspace)
    ->Args({10000, 16})
    ->Args({100000, 64})
    ->Args({1000000, 64});

void BM_SimDispatchReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<MachineId>(state.range(1));
  const Instance inst = bench_instance(n, m);
  std::vector<MachineId> group_of(n);
  for (TaskId j = 0; j < n; ++j) group_of[j] = j % 8;
  const Placement placement = Placement::in_groups(group_of, 8, m);
  const Realization actual = realize(inst, NoiseModel::kUniform, 7);
  const auto priority = make_priority(inst, PriorityRule::kLongestEstimateFirst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        check::reference_dispatch_online(inst, placement, actual, priority));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimDispatchReference)->Args({10000, 16})->Args({100000, 64});

template <typename Queue>
void hold_model(benchmark::State& state, Queue& queue) {
  constexpr std::size_t kQueueSize = 4096;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next_step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return 1e-3 * static_cast<double>(x % 100000);
  };
  std::uint64_t seq = 0;
  const auto push = [&](Time when, TaskId task) {
    queue.push(SimEvent{when, kSimEventFinish, kNoMachine, task, 0, seq++});
  };
  for (std::size_t i = 0; i < kQueueSize; ++i) {
    push(next_step(), static_cast<TaskId>(i));
  }
  for (auto _ : state) {
    const SimEvent event = pop_next(queue);
    benchmark::DoNotOptimize(event.task);
    push(event.when + next_step(), event.task);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SimEventQueueHold(benchmark::State& state) {
  SimEventQueue queue;
  hold_model(state, queue);
}
BENCHMARK(BM_SimEventQueueHold);

void BM_SimLegacyQueueHold(benchmark::State& state) {
  BinaryHeapQueue queue;
  hold_model(state, queue);
}
BENCHMARK(BM_SimLegacyQueueHold);

void BM_FullStrategyRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Instance inst = bench_instance(n, 16);
  const Realization actual = realize(inst, NoiseModel::kUniform, 3);
  const TwoPhaseStrategy strategy = make_ls_group(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.run(inst, actual));
  }
}
BENCHMARK(BM_FullStrategyRun)->Arg(1000)->Arg(10000);

}  // namespace
