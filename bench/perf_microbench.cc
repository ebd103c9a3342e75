// Microbenchmarks (google-benchmark) for the hot paths the paper's Section 4
// constraints care about: a predictor must respond "within the polling
// frequency of the central scheduler" with a small CPU and memory footprint.
// Measures per-poll predictor cost, oracle computation throughput, the
// TaskHistory percentile window, and the fused simulation engine
// (machines/sec and intervals/sec, with and without the shared oracle cache
// across a 16-point predictor sweep).
//
// Results are recorded as JSON under $REPRO_OUT (default bench_out/) in
// perf_microbench.json; pass --benchmark_out=... to override. These kernels
// are a developer tool: the repository benchmark, with repetitions, a host
// fingerprint and a base/head protocol, is perfbench/ (python3
// perfbench/run.py; see perfbench/README.md).

#include <benchmark/benchmark.h>

#include <array>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "crf/cluster/cell_sim.h"
#include "crf/core/oracle.h"
#include "crf/core/predictor_factory.h"
#include "crf/core/task_history.h"
#include "crf/serve/replay.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/trace/job_sampler.h"
#include "crf/trace/workload_model.h"
#include "crf/util/env.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

std::vector<TaskSample> MakeTasks(int count, Rng& rng) {
  std::vector<TaskSample> tasks;
  tasks.reserve(count);
  for (int i = 0; i < count; ++i) {
    const double limit = 0.02 + rng.UniformDouble() * 0.2;
    tasks.push_back({static_cast<TaskId>(i + 1), limit * rng.UniformDouble(), limit});
  }
  return tasks;
}

// One predictor poll per iteration over a fixed roster of range(0) tasks.
// With `churn`, every poll also retires the task at a rotating position and
// admits a new task with its limit, so the roster size stays constant.
void BenchPredictorPoll(benchmark::State& state, const PredictorSpec& spec,
                        bool churn = false) {
  Rng rng(1);
  auto predictor = CreatePredictor(spec);
  auto tasks = MakeTasks(static_cast<int>(state.range(0)), rng);
  TaskId next_id = static_cast<TaskId>(tasks.size()) + 1;
  predictor->Observe(0, tasks, RosterDelta{.arrived = static_cast<int32_t>(tasks.size())});
  Interval now = 1;
  int32_t departed = 0;
  for (auto _ : state) {
    RosterDelta delta;
    if (churn) {
      departed = (departed + 1) % static_cast<int32_t>(tasks.size());
      TaskSample arrival = tasks[departed];
      arrival.task_id = next_id++;
      tasks.erase(tasks.begin() + departed);
      tasks.push_back(arrival);
      delta = RosterDelta{std::span(&departed, 1), 1};
    }
    // Perturb usage so the history windows churn realistically.
    for (auto& task : tasks) {
      task.usage = task.limit * rng.UniformDouble();
    }
    predictor->Observe(now++, tasks, delta);
    benchmark::DoNotOptimize(predictor->PredictPeak());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BorgDefaultPoll(benchmark::State& state) {
  BenchPredictorPoll(state, BorgDefaultSpec(0.9));
}
void BM_RcLikePoll(benchmark::State& state) { BenchPredictorPoll(state, RcLikeSpec(99.0)); }
void BM_NSigmaPoll(benchmark::State& state) { BenchPredictorPoll(state, NSigmaSpec(5.0)); }
void BM_MaxPoll(benchmark::State& state) { BenchPredictorPoll(state, ProductionMaxSpec()); }

BENCHMARK(BM_BorgDefaultPoll)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_RcLikePoll)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_NSigmaPoll)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_MaxPoll)->Arg(16)->Arg(64)->Arg(256);

void BM_RcLikePollChurn(benchmark::State& state) {
  BenchPredictorPoll(state, RcLikeSpec(99.0), /*churn=*/true);
}
void BM_MaxPollChurn(benchmark::State& state) {
  BenchPredictorPoll(state, ProductionMaxSpec(), /*churn=*/true);
}

BENCHMARK(BM_RcLikePollChurn)->Arg(16);
BENCHMARK(BM_MaxPollChurn)->Arg(16);

void BM_TaskHistoryPush(benchmark::State& state) {
  TaskHistory history(static_cast<int>(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    history.Push(static_cast<float>(rng.UniformDouble()));
    benchmark::DoNotOptimize(history.size());
  }
}
BENCHMARK(BM_TaskHistoryPush)->Arg(24)->Arg(120)->Arg(1200)->Arg(8640);

void BM_TaskHistoryPercentile(benchmark::State& state) {
  TaskHistory history(static_cast<int>(state.range(0)));
  Rng rng(3);
  for (int i = 0; i < state.range(0); ++i) {
    history.Push(static_cast<float>(rng.UniformDouble()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history.Percentile(99.0));
  }
}
BENCHMARK(BM_TaskHistoryPercentile)->Arg(24)->Arg(120)->Arg(1200)->Arg(8640);

// One-machine oracle computation over a day trace; measures the
// segment-sliding-max algorithm.
void BM_PeakOracle(benchmark::State& state) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 1;
  profile.tasks_per_machine = static_cast<double>(state.range(0));
  profile.target_alloc_ratio = 1e9;  // Let the single machine hold them all.
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerWeek;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePeakOracle(cell, 0, kIntervalsPerDay));
  }
  state.SetItemsProcessed(state.iterations() * cell.num_intervals);
}
BENCHMARK(BM_PeakOracle)->Arg(16)->Arg(64);

void BM_TotalUsageOracle(benchmark::State& state) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 1;
  profile.tasks_per_machine = static_cast<double>(state.range(0));
  profile.target_alloc_ratio = 1e9;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerWeek;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTotalUsageOracle(cell, 0, kIntervalsPerDay));
  }
  state.SetItemsProcessed(state.iterations() * cell.num_intervals);
}
BENCHMARK(BM_TotalUsageOracle)->Arg(16)->Arg(64);

// The default synthetic simulation cell for engine-throughput benches:
// profile 'a' at a bench-friendly machine count, one week.
const CellTrace& SweepCell() {
  static const CellTrace* cell = [] {
    CellProfile profile = SimCellProfile('a');
    profile.num_machines = 16;
    GeneratorOptions options;
    options.num_intervals = kIntervalsPerWeek;
    auto* trace = new CellTrace(GenerateCellTrace(profile, options, Rng(6)));
    trace->FilterToServingTasks();
    return trace;
  }();
  return *cell;
}

// One machine through the fused engine (no oracle cache): steady-state
// per-machine simulation throughput in intervals/sec.
void BM_SimulateMachineFused(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  SimOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimulateMachine(cell, 0, NSigmaSpec(5.0), options, nullptr, nullptr));
  }
  state.counters["intervals_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * cell.num_intervals),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateMachineFused);

// The streaming serve layer ingesting the full event stream of the default
// synthetic cell (arrivals, departures, one usage sample per resident task
// per interval). Arg(0): serial; Arg(1): sharded ingestion on the thread
// pool. events_per_second is the serve-layer ingest rate.
void BM_StreamIngest(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  ReplayOptions options;
  options.parallel = state.range(0) == 1;
  options.latency_sample_period = 0;  // Measure pure ingest, not the timers.
  uint64_t events = 0;
  for (auto _ : state) {
    StreamReplayer replayer(cell, ProductionMaxSpec(), options);
    replayer.AdvanceToEnd();
    events = replayer.Metrics().TotalEvents();
    benchmark::DoNotOptimize(events);
  }
  state.counters["events_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations() * events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamIngest)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// A 16-point N-sigma parameter sweep over the default synthetic cell —
// the fig08-shaped workload. Arg(0): every sweep point recomputes the
// oracle; Arg(1): one OracleCache shared across all 16 points. The reported
// machines_per_second / intervals_per_second ratio between the two rows is
// the recorded oracle-cache speedup.
void BM_NSigmaSweep16(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  const bool use_cache = state.range(0) != 0;
  constexpr int kSweepPoints = 16;
  for (auto _ : state) {
    OracleCache cache;
    SimOptions options;
    if (use_cache) {
      options.oracle_cache = &cache;
    }
    for (int point = 0; point < kSweepPoints; ++point) {
      benchmark::DoNotOptimize(SimulateCell(cell, NSigmaSpec(2.0 + 0.5 * point), options));
    }
  }
  const double machine_sims = static_cast<double>(state.iterations()) * kSweepPoints *
                              static_cast<double>(cell.num_machines());
  state.counters["machines_per_second"] =
      benchmark::Counter(machine_sims, benchmark::Counter::kIsRate);
  state.counters["intervals_per_second"] = benchmark::Counter(
      machine_sims * static_cast<double>(cell.num_intervals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NSigmaSweep16)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The whole grid over the default cell. Arg(0): one SimulateCell per spec
// (the per-spec reference, with a shared OracleCache so only predictor work
// differs). Arg(1): one SimulateCellMulti walking each machine once. The
// machines_per_second ratio between the rows is the sweep-engine speedup.
void BM_SweepGrid(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  const std::vector<PredictorSpec> specs = SweepGridSpecs();
  const bool multi = state.range(0) != 0;
  for (auto _ : state) {
    OracleCache cache;
    SimOptions options;
    options.oracle_cache = &cache;
    if (multi) {
      benchmark::DoNotOptimize(SimulateCellMulti(cell, specs, options));
    } else {
      for (const PredictorSpec& spec : specs) {
        benchmark::DoNotOptimize(SimulateCell(cell, spec, options));
      }
    }
  }
  const double machine_sims = static_cast<double>(state.iterations()) * specs.size() *
                              static_cast<double>(cell.num_machines());
  state.counters["machines_per_second"] =
      benchmark::Counter(machine_sims, benchmark::Counter::kIsRate);
  state.counters["intervals_per_second"] = benchmark::Counter(
      machine_sims * static_cast<double>(cell.num_intervals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepGrid)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();

// The closed-loop cluster engine, both configurations: Arg(0) = the serial
// reference (serial step loop + linear-scan placement), Arg(1) = the
// production path (sharded step loop + indexed placement). Both are
// byte-identical in output; the counter ratio is the engine speedup.
void BM_ClusterSim(benchmark::State& state) {
  const bool sharded = state.range(0) != 0;
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 32;
  ClusterSimOptions options;
  options.num_intervals = kIntervalsPerDay;
  options.warmup = kIntervalsPerDay / 4;
  options.parallel = sharded;
  options.placement = sharded ? PlacementEngine::kIndexed : PlacementEngine::kLinearScan;
  int64_t attempts = 0;
  for (auto _ : state) {
    const ClusterSimResult result = RunClusterSim(profile, options, Rng(7));
    attempts += result.placement_attempts;
    benchmark::DoNotOptimize(result.tasks_placed);
  }
  const double machine_steps = static_cast<double>(state.iterations()) *
                               profile.num_machines * options.num_intervals;
  state.counters["machine_steps_per_second"] =
      benchmark::Counter(machine_steps, benchmark::Counter::kIsRate);
  state.counters["placements_per_second"] =
      benchmark::Counter(static_cast<double>(attempts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClusterSim)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

// The closed-loop machine step's usage synthesis in isolation: one interval
// of 15 resident tasks (TaskUsageModel::Step plus the interval p90), with
// cell a's job mix. Items are task-intervals.
void BM_TaskUsageStep(benchmark::State& state) {
  constexpr int kTasks = 15;
  const CellProfile profile = SimCellProfile('a');
  JobSampler sampler(profile, Rng(11));
  Rng task_rng(13);
  std::vector<TaskUsageModel> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.emplace_back(sampler.JitterTaskParams(sampler.NextJob().params), 0, task_rng.Fork(i));
  }
  std::array<double, kSubSamplesPerInterval> sub_samples;
  double shared_load = 1.0;
  for (auto _ : state) {
    float p90_sum = 0.0f;
    for (TaskUsageModel& task : tasks) {
      task.Step(sub_samples, shared_load);
      p90_sum += IntervalP90(sub_samples);
    }
    benchmark::DoNotOptimize(p90_sum);
    shared_load = shared_load > 1.1 ? 0.9 : shared_load + 0.01;
  }
  state.SetItemsProcessed(state.iterations() * kTasks);
}
BENCHMARK(BM_TaskUsageStep);

// Steady-state placement cost in isolation: one Publish + one Place per
// iteration against a warm scheduler. Arg(0) = machine count, Arg(1) = 0 for
// the linear scan, 1 for the tournament tree (O(M) vs O(log M)).
void BM_SchedulerPlace(benchmark::State& state) {
  const int num_machines = static_cast<int>(state.range(0));
  const PlacementEngine engine =
      state.range(1) != 0 ? PlacementEngine::kIndexed : PlacementEngine::kLinearScan;
  Scheduler scheduler(PackingPolicy::kBestFit, Rng(8), engine);
  Rng rng(9);
  std::vector<double> free(num_machines);
  for (double& f : free) {
    f = 0.3 + 0.7 * rng.UniformDouble();
  }
  scheduler.UpdateFreeCapacity(free);
  int machine = 0;
  for (auto _ : state) {
    scheduler.Publish(machine, 0.3 + 0.7 * rng.UniformDouble());
    machine = (machine + 1) % num_machines;
    benchmark::DoNotOptimize(scheduler.Place(0.05 + 0.1 * rng.UniformDouble(), {}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedulerPlace)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({8192, 0})
    ->Args({8192, 1});

// ---------------------------------------------------------------------------
// Trace layout: full-cell machine scans over the columnar arena.
//
// The per-interval (usage sum, limit sum, resident count) triple for every
// machine — exactly what fig3/fig12/trace_stats consume — streamed through
// one MachineSeriesCursor pass over the sealed slab. The checksum keeps the
// scan unoptimizable.
double ScanAllMachinesArena(const CellTrace& cell, MachineSeriesCursor& cursor) {
  double checksum = 0.0;
  for (int m = 0; m < cell.num_machines(); ++m) {
    cursor.Reset(m);
    while (cursor.Next()) {
      checksum += cursor.usage() + cursor.limit_sum() + static_cast<double>(cursor.resident());
    }
  }
  return checksum;
}

// machine_scans_per_second is the arena scan rate.
void BM_TraceLayout(benchmark::State& state) {
  const CellTrace& cell = SweepCell();
  MachineSeriesCursor cursor(cell);
  for (auto _ : state) {
    const double checksum = ScanAllMachinesArena(cell, cursor);
    benchmark::DoNotOptimize(checksum);
  }
  const double machine_scans =
      static_cast<double>(state.iterations()) * static_cast<double>(cell.num_machines());
  state.counters["machine_scans_per_second"] =
      benchmark::Counter(machine_scans, benchmark::Counter::kIsRate);
  state.counters["intervals_per_second"] = benchmark::Counter(
      machine_scans * static_cast<double>(cell.num_intervals), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceLayout)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crf

// BENCHMARK_MAIN, plus JSON recording under $REPRO_OUT unless the caller
// already chose an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).starts_with("--benchmark_out")) {
      has_out = true;
    }
  }
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    const std::string out_dir = crf::BenchOutputDir();
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    out_flag = "--benchmark_out=" + out_dir + "/perf_microbench.json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
