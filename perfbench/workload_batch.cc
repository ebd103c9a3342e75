// Workload `batch`: the paper's §5 trace-driven path on one sealed cell-a
// trace, mmap-loaded and filtered to serving tasks. One repetition runs, in
// order, SimulateCell with the production max spec, SimulateCellMulti over
// the 27-point Fig 8/9 grid, and an in-process StreamReplayer (16 shards,
// pool of min(4, nproc)) advanced a day at a time that seals one checkpoint
// at mid-trace. It never touches net, cluster or index.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <stdexcept>

#include "bench_util.h"
#include "crf/core/oracle.h"
#include "crf/core/predictor_factory.h"
#include "crf/serve/checkpoint.h"
#include "crf/serve/event_log.h"
#include "crf/serve/replay.h"
#include "crf/sim/simulator.h"
#include "crf/trace/trace_io.h"
#include "crf/util/thread_pool.h"

namespace perfbench {
namespace {

using crf::CellTrace;
using crf::Interval;
using crf::MachineMetrics;
using crf::PredictorSpec;
using crf::SimResult;

// The Fig 8/9 sweep grid (the axes of SweepGridSpecs in
// bench/perf_microbench.cc): 27 n-sigma, RC-like, chance and flex points.
std::vector<PredictorSpec> SweepGrid() {
  std::vector<PredictorSpec> specs;
  for (const double n : {2.0, 3.0, 5.0, 10.0}) {
    specs.push_back(crf::NSigmaSpec(n));
  }
  for (const int hours : {1, 2, 3}) {
    specs.push_back(crf::NSigmaSpec(5.0, hours * crf::kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    specs.push_back(
        crf::NSigmaSpec(5.0, 2 * crf::kIntervalsPerHour, hours * crf::kIntervalsPerHour));
  }
  for (const double p : {80.0, 90.0, 95.0, 99.0}) {
    specs.push_back(crf::RcLikeSpec(p));
  }
  for (const int hours : {1, 2, 3}) {
    specs.push_back(crf::RcLikeSpec(95.0, hours * crf::kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    specs.push_back(
        crf::RcLikeSpec(95.0, 2 * crf::kIntervalsPerHour, hours * crf::kIntervalsPerHour));
  }
  for (const double target : {0.005, 0.01, 0.05, 0.10}) {
    specs.push_back(crf::ChanceSpec(target));
  }
  for (const double p : {90.0, 95.0, 99.0}) {
    specs.push_back(crf::FlexSpec(p));
  }
  return specs;
}

CellTrace LoadServingCell(const std::string& path, Tracer::Buffer* spans) {
  ScopedSpan span(spans, "trace.load");
  crf::TraceLoadOptions options;
  options.mode = crf::TraceLoadMode::kMapped;
  std::string error;
  std::optional<CellTrace> cell = crf::LoadCellTrace(path, options, &error);
  if (!cell.has_value()) {
    throw std::runtime_error("cannot load trace " + path + ": " + error);
  }
  cell->FilterToServingTasks();
  return std::move(*cell);
}

bool MachineMetricsEqual(const MachineMetrics& a, const MachineMetrics& b) {
  return a.machine_index == b.machine_index && a.intervals == b.intervals &&
         a.occupied_intervals == b.occupied_intervals && a.violations == b.violations &&
         BitsEqual(a.mean_violation_severity, b.mean_violation_severity) &&
         BitsEqual(a.savings_ratio, b.savings_ratio) &&
         BitsEqual(a.mean_prediction, b.mean_prediction) &&
         BitsEqual(a.mean_limit, b.mean_limit) &&
         BitsEqual(a.tail.severity_p99, b.tail.severity_p99) &&
         BitsEqual(a.tail.severity_p999, b.tail.severity_p999) &&
         a.tail.max_violation_streak == b.tail.max_violation_streak &&
         BitsEqual(a.tail.streak_p99, b.tail.streak_p99) &&
         BitsEqual(a.tail.streak_p999, b.tail.streak_p999) &&
         BitsEqual(a.tail.violation_time_fraction, b.tail.violation_time_fraction) &&
         BitsEqual(a.tail.savings_at_risk, b.tail.savings_at_risk);
}

// Number of machines whose metrics differ (a size mismatch counts every
// machine), plus one when `with_cell_series` and the cell series differ.
// Per-machine metrics must be bit-equal. The cell series sums per-thread
// partial series whose machine assignment follows the pool's schedule, so
// its rounding varies from call to call and it is compared to 1e-12.
int64_t CountMismatches(const SimResult& got, const SimResult& want, bool with_cell_series) {
  if (got.machines.size() != want.machines.size()) {
    return static_cast<int64_t>(std::max(got.machines.size(), want.machines.size()));
  }
  int64_t mismatches = 0;
  for (size_t i = 0; i < got.machines.size(); ++i) {
    mismatches += MachineMetricsEqual(got.machines[i], want.machines[i]) ? 0 : 1;
  }
  if (with_cell_series) {
    bool same = got.cell_savings_series.size() == want.cell_savings_series.size();
    for (size_t i = 0; same && i < got.cell_savings_series.size(); ++i) {
      same = std::abs(got.cell_savings_series[i] - want.cell_savings_series[i]) <= 1e-12;
    }
    mismatches += same ? 0 : 1;
  }
  return mismatches;
}

void FlipLowBit(double& value) {
  value = std::bit_cast<double>(std::bit_cast<uint64_t>(value) ^ 1);
}

crf::ReplayOptions ReplayOptionsFor(crf::ThreadPool* pool, bool parallel) {
  crf::ReplayOptions options;
  options.num_shards = 16;
  options.pool = pool;
  options.parallel = parallel;
  return options;
}

// Tick boundaries the replay stops at: every day, plus the mid-trace cut.
std::vector<Interval> AdvanceStops(Interval num_intervals) {
  std::vector<Interval> stops{num_intervals / 2, num_intervals};
  for (Interval t = crf::kIntervalsPerDay; t < num_intervals; t += crf::kIntervalsPerDay) {
    stops.push_back(t);
  }
  std::sort(stops.begin(), stops.end());
  stops.erase(std::unique(stops.begin(), stops.end()), stops.end());
  return stops;
}

struct ReplayCounts {
  uint64_t events = 0;
  uint64_t checkpoint_bytes = 0;
};

// Advances `replayer` to the end a day at a time, sealing a checkpoint at
// mid-trace, and scores it.
SimResult RunReplay(crf::StreamReplayer& replayer, const std::string& checkpoint_path,
                    Tracer::Buffer* spans, ReplayCounts& counts) {
  const Interval num_intervals = replayer.cell().num_intervals;
  const Interval mid = num_intervals / 2;
  for (const Interval stop : AdvanceStops(num_intervals)) {
    {
      ScopedSpan span(spans, "serve.advance_day");
      replayer.Advance(stop);
    }
    if (stop == mid) {
      ScopedSpan span(spans, "serve.checkpoint");
      std::string error;
      if (!crf::SaveCheckpoint(replayer, checkpoint_path, &error)) {
        throw std::runtime_error("checkpoint: " + error);
      }
    }
  }
  SimResult result;
  {
    ScopedSpan span(spans, "serve.finish");
    result = replayer.Finish();
  }
  counts.events = replayer.Metrics().TotalEvents();
  counts.checkpoint_bytes = std::filesystem::file_size(checkpoint_path);
  return result;
}

// Set-up is short next to a repetition, so it is timed this many times
// before the measured phase and reported as a median.
constexpr int kSetupSamples = 10;

struct RepTiming {
  StepTime simulate;
  StepTime sweep;
  StepTime replay;
  ReplayCounts replay_counts;
};

}  // namespace

void RunBatch(const RunConfig& config, Report& report) {
  const PredictorSpec spec = crf::ProductionMaxSpec();
  const std::vector<PredictorSpec> grid = SweepGrid();
  const std::string checkpoint_path = config.work_dir + "/batch.ckpt";
  crf::ThreadPool pool(config.pool_threads);
  report.Info("simulate_pool_threads", std::to_string(crf::ThreadPool::Default().num_threads()));
  report.Info("replay_pool_threads", std::to_string(pool.num_threads()));

  // Three seed-chosen grid points whose sweep results are checked bit for
  // bit against SimulateCell (computed once, outside the timed phase).
  std::mt19937_64 pick(config.seed);
  std::vector<int> checked;
  while (checked.size() < 3) {
    const int index = static_cast<int>(pick() % grid.size());
    if (std::find(checked.begin(), checked.end(), index) == checked.end()) {
      checked.push_back(index);
    }
  }
  std::vector<SimResult> expected_points;

  // Set-up, timed kSetupSamples times before the measured phase: the
  // zero-copy load plus the serving filter, then the replayer's state.
  std::vector<double> setup_cpu_s, setup_wall_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const StepTimer timer;
    const CellTrace cell = LoadServingCell(config.trace_path, nullptr);
    const crf::StreamReplayer replayer(cell, spec, ReplayOptionsFor(&pool, true));
    const StepTime time = timer.Stop();
    setup_cpu_s.push_back(time.cpu);
    setup_wall_s.push_back(time.wall);
    if (expected_points.empty()) {
      for (const int index : checked) {
        expected_points.push_back(crf::SimulateCell(cell, grid[index]));
      }
      if (config.corrupt) {
        FlipLowBit(expected_points[0].machines[0].savings_ratio);
      }
    }
  }

  std::vector<RepTiming> reps;
  std::vector<double> peak_rss;
  int machines = 0;
  const auto run_start = Clock::now();
  // The traced run measures one untraced repetition, as its overhead baseline.
  const int min_reps = MinReps(config);
  while (static_cast<int>(reps.size()) < min_reps ||
         (!config.traced && SecondsSince(run_start) < config.seconds)) {
    RepTiming rep;
    ResetPeakMemory();
    const CellTrace cell = LoadServingCell(config.trace_path, nullptr);
    crf::StreamReplayer replayer(cell, spec, ReplayOptionsFor(&pool, true));
    machines = cell.num_machines();

    crf::OracleCache cache;
    crf::SimOptions options;
    options.oracle_cache = &cache;
    const StepTimer simulate_timer;
    SimResult simulated = crf::SimulateCell(cell, spec, options);
    rep.simulate = simulate_timer.Stop();
    const StepTimer sweep_timer;
    std::vector<SimResult> swept = crf::SimulateCellMulti(cell, grid, options);
    rep.sweep = sweep_timer.Stop();
    const StepTimer replay_timer;
    SimResult replayed = RunReplay(replayer, checkpoint_path, nullptr, rep.replay_counts);
    rep.replay = replay_timer.Stop();
    peak_rss.push_back(PeakRssMiB());
    report.Attempt(3);

    // Checks, outside the timed steps: replay per-machine metrics equal
    // SimulateCell's, and the checked grid points equal SimulateCell's.
    if (config.corrupt) {
      FlipLowBit(simulated.machines[0].mean_prediction);
    }
    if (const int64_t bad = CountMismatches(replayed, simulated, false); bad > 0) {
      report.Fail("replay differs from SimulateCell on " + std::to_string(bad) + " machines");
    }
    for (size_t i = 0; i < checked.size(); ++i) {
      if (const int64_t bad = CountMismatches(swept[checked[i]], expected_points[i], true);
          bad > 0) {
        report.Fail("sweep point " + grid[checked[i]].Name() + " differs from SimulateCell (" +
                    std::to_string(bad) + " mismatches)");
      }
    }
    report.Attempt(1 + static_cast<int64_t>(checked.size()));
    std::fprintf(stderr,
                 "batch repetition %zu: wall/cpu s: simulate %.3f/%.3f, sweep %.3f/%.3f, "
                 "replay %.3f/%.3f\n",
                 reps.size() + 1, rep.simulate.wall, rep.simulate.cpu, rep.sweep.wall,
                 rep.sweep.cpu, rep.replay.wall, rep.replay.cpu);
    reps.push_back(rep);
  }

  // Each step's fastest repetition (see BestRate), in wall and CPU time.
  StepTime simulate = reps.front().simulate;
  StepTime sweep = reps.front().sweep;
  StepTime replay = reps.front().replay;
  for (const RepTiming& rep : reps) {
    for (auto [best, time] : {std::pair{&simulate, rep.simulate}, std::pair{&sweep, rep.sweep},
                              std::pair{&replay, rep.replay}}) {
      best->wall = std::min(best->wall, time.wall);
      best->cpu = std::min(best->cpu, time.cpu);
    }
  }
  // Work of one repetition: machine x spec evaluations, one per machine for
  // simulate and replay and one per grid point for the sweep.
  const double evaluations = static_cast<double>(grid.size() + 2) * machines;
  const double events = static_cast<double>(reps.front().replay_counts.events);
  const auto n = static_cast<int64_t>(reps.size());
  report.Metric("setup_s", Median(setup_cpu_s), "s", kSetupSamples);
  report.Metric("setup_wall_s", Median(setup_wall_s), "s", kSetupSamples);
  report.Metric("simulate_machines_per_s", machines / simulate.wall, "1/s", n);
  report.Metric("sweep_machines_per_s", static_cast<double>(grid.size()) * machines / sweep.wall,
                "1/s", n);
  report.Metric("replay_events_per_s", events / replay.wall, "1/s", n);
  report.Metric("throughput_per_s", evaluations / (simulate.wall + sweep.wall + replay.wall),
                "1/s", n);
  report.Metric("work_per_cpu_s", evaluations / (simulate.cpu + sweep.cpu + replay.cpu), "1/s",
                n);
  report.Metric("peak_rss_mb", Median(peak_rss), "MiB", n);
  if (!config.traced) {
    return;
  }

  // Traced run. First the repetition's steps again, unchanged but for a span
  // around every layer call, timed against the first untraced repetition
  // for the tracing overhead. Then the decompositions that need extra
  // passes: the oracle alone, per-machine spans, and serial runs for the
  // parallel efficiencies.
  Tracer tracer;
  Tracer::Buffer* spans = tracer.NewBuffer();
  const CellTrace cell = LoadServingCell(config.trace_path, spans);
  {
    ScopedSpan span(spans, "trace.eventlog_build");
    const crf::EventLog log(cell);
  }
  crf::StreamReplayer replayer(cell, spec, ReplayOptionsFor(&pool, true));
  crf::OracleCache cache;
  crf::SimOptions options;
  options.oracle_cache = &cache;
  const auto traced_start = Clock::now();
  {
    ScopedSpan span(spans, "sim.simulate");
    crf::SimulateCell(cell, spec, options);
  }
  {
    ScopedSpan span(spans, "core.sweep_bank");
    crf::SimulateCellMulti(cell, grid, options);
  }
  ReplayCounts traced_replay;
  RunReplay(replayer, checkpoint_path, spans, traced_replay);
  const double traced_wall = SecondsSince(traced_start);
  const RepTiming& base = reps.front();
  const double untraced_wall = base.simulate.wall + base.sweep.wall + base.replay.wall;

  // The oracle of every machine into a fresh cache, on the pool SimulateCell
  // computes it on, then SimulateCell on that warm cache.
  crf::OracleCache warm_cache;
  crf::SimOptions warm = options;
  warm.oracle_cache = &warm_cache;
  crf::ThreadPool& simulate_pool = crf::ThreadPool::Default();
  {
    ScopedSpan span(spans, "core.oracle");
    simulate_pool.ParallelFor(cell.num_machines(), [&](int m) {
      warm_cache.GetOrCompute(cell, m, warm.horizon, crf::OracleKind::kPeak);
    });
  }
  {
    ScopedSpan span(spans, "sim.simulate_warm");
    crf::SimulateCell(cell, spec, warm);
  }

  // Per-machine SimulateMachine spans on the pool (warm oracle cache).
  std::vector<Tracer::Buffer*> slot_spans(pool.num_threads());
  for (auto& buffer : slot_spans) {
    buffer = tracer.NewBuffer();
  }
  pool.ParallelForIndexed(cell.num_machines(), [&](int slot, int m) {
    ScopedSpan span(slot_spans[slot], "sim.machine");
    crf::SimulateMachine(cell, m, spec, warm, nullptr, nullptr);
  });

  crf::SimOptions serial = warm;
  serial.parallel = false;
  {
    ScopedSpan span(spans, "sim.simulate_serial");
    crf::SimulateCell(cell, spec, serial);
  }
  {
    crf::StreamReplayer serial_replayer(cell, spec, ReplayOptionsFor(&pool, false));
    ScopedSpan span(spans, "serve.replay_serial");
    serial_replayer.AdvanceToEnd();
  }

  const auto total = [&](const char* name) { return Sum(tracer.Durations(name)); };
  std::vector<double> machine_ms = tracer.Durations("sim.machine");
  for (double& value : machine_ms) {
    value *= 1e3;
  }
  std::vector<double> day_ms = tracer.Durations("serve.advance_day");
  for (double& value : day_ms) {
    value *= 1e3;
  }
  const int simulate_threads = simulate_pool.num_threads();
  report.Metric("trace.load_s", total("trace.load"), "s");
  report.Metric("trace.eventlog_build_s", total("trace.eventlog_build"), "s");
  report.Metric("core.oracle_s", total("core.oracle"), "s");
  report.Metric("core.oracle_cache_hits", static_cast<double>(cache.hits()), "count");
  report.Metric("core.oracle_cache_misses", static_cast<double>(cache.misses()), "count");
  report.Metric("core.sweep_bank_s", total("core.sweep_bank"), "s");
  report.Metric("sim.simulate_warm_s", total("sim.simulate_warm"), "s");
  report.Metric("sim.machine_ms_p50", Median(machine_ms), "ms",
                static_cast<int64_t>(machine_ms.size()));
  report.Metric("sim.machine_ms_max", Max(machine_ms), "ms",
                static_cast<int64_t>(machine_ms.size()));
  report.Metric("sim.parallel_efficiency",
                total("sim.simulate_serial") / (total("sim.simulate_warm") * simulate_threads),
                "ratio");
  report.Metric("serve.advance_day_ms_p50", Median(day_ms), "ms",
                static_cast<int64_t>(day_ms.size()));
  report.Metric("serve.advance_day_ms_max", Max(day_ms), "ms",
                static_cast<int64_t>(day_ms.size()));
  report.Metric("serve.checkpoint_ms", total("serve.checkpoint") * 1e3, "ms");
  report.Metric("serve.checkpoint_bytes", static_cast<double>(traced_replay.checkpoint_bytes),
                "B");
  report.Metric("serve.finish_ms", total("serve.finish") * 1e3, "ms");
  report.Metric("serve.parallel_efficiency",
                total("serve.replay_serial") /
                    (total("serve.advance_day") * pool.num_threads()),
                "ratio");
  report.Metric("bench.trace_overhead_frac", traced_wall / untraced_wall - 1.0, "ratio");
}

}  // namespace perfbench
