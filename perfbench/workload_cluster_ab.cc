// Workload `cluster_ab`: the paper's §6 closed-loop A/B on production_3.
// One repetition is a paired RunAbExperiment: a control arm (borg-default)
// and an experiment arm (the production max spec) from the same seed, on a
// pool of min(4, nproc) with the global scheduler (placement_shards = 0),
// including two days of warm-up. It is the only workload that exercises
// cluster and index, and it runs the predictors in a closed loop.

#include <cstdio>
#include <stdexcept>

#include "bench_util.h"
#include "crf/cluster/ab_experiment.h"
#include "crf/cluster/cell_sim.h"
#include "crf/core/predictor_factory.h"
#include "crf/trace/cell_profile.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"

namespace perfbench {
namespace {

using crf::GroupMetrics;

// Set-up takes well under a millisecond, so it is timed this many times
// before the measured phase and reported as a median.
constexpr int kSetupSamples = 25;

void AddEcdf(Digest& digest, const crf::Ecdf& ecdf) {
  digest.Add(static_cast<int64_t>(ecdf.size()));
  for (const double value : ecdf.sorted_samples()) {
    digest.Add(value);
  }
}

void AddGroup(Digest& digest, const GroupMetrics& group) {
  for (const crf::Ecdf* ecdf :
       {&group.violation_rate, &group.violation_severity, &group.severity_p999,
        &group.max_violation_streak, &group.machine_p90_latency, &group.machine_p50_utilization,
        &group.machine_mean_utilization, &group.machine_p99_utilization,
        &group.relative_savings, &group.normalized_allocation, &group.normalized_workload,
        &group.task_latency}) {
    AddEcdf(digest, *ecdf);
  }
  digest.Add(group.tasks_placed);
  digest.Add(group.tasks_timed_out);
}

std::string GroupDigest(const GroupMetrics& control, const GroupMetrics& experiment) {
  Digest digest;
  AddGroup(digest, control);
  AddGroup(digest, experiment);
  return digest.Hex();
}

// Every placement the live scheduler made: task, machine, start, limit.
void AddPlacements(Digest& digest, const crf::ClusterSimResult& result) {
  const crf::CellTrace& trace = result.trace;
  digest.Add(static_cast<int64_t>(trace.num_tasks()));
  for (int32_t i = 0; i < trace.num_tasks(); ++i) {
    digest.Add(static_cast<int64_t>(trace.task_ids()[i]));
    digest.Add(static_cast<int64_t>(trace.task_machines()[i]));
    digest.Add(static_cast<int64_t>(trace.task_starts()[i]));
    digest.Add(trace.task_limits()[i]);
  }
}

struct Setup {
  crf::CellProfile profile;
  crf::ClusterSimOptions options;
};

Setup MakeSetup(const RunConfig& config, crf::ThreadPool* pool) {
  Setup setup{crf::ProductionCellProfile(3), {}};
  setup.profile.num_machines = config.machines;
  setup.options.num_intervals = config.days * crf::kIntervalsPerDay;
  setup.options.warmup = std::min<crf::Interval>(2 * crf::kIntervalsPerDay,
                                                 setup.options.num_intervals / 4);
  setup.options.placement_shards = 0;
  setup.options.pool = pool;
  return setup;
}

}  // namespace

void RunClusterAb(const RunConfig& config, Report& report) {
  const crf::PredictorSpec control_spec = crf::BorgDefaultSpec();
  const crf::PredictorSpec experiment_spec = crf::ProductionMaxSpec();
  const crf::Rng rng(config.seed);

  crf::ThreadPool pool(config.pool_threads);
  const Setup setup = MakeSetup(config, &pool);
  report.Info("cluster_pool_threads", std::to_string(pool.num_threads()));

  // Set-up: the time to the first scheduled interval, i.e. a control-arm
  // RunClusterSim of one interval (job sampler, scheduler and capacity
  // index, machines with their predictors, result series, one step). It
  // runs on the calling thread: waking the pool for a single step would
  // time the wake-ups, not the set-up.
  std::vector<double> setup_cpu_s, setup_wall_s;
  crf::ClusterSimOptions first_step = setup.options;
  first_step.predictor = control_spec;
  first_step.num_intervals = 1;
  first_step.warmup = 0;
  first_step.parallel = false;
  for (int i = 0; i < kSetupSamples; ++i) {
    const StepTimer timer;
    crf::RunClusterSim(setup.profile, first_step, rng);
    const StepTime time = timer.Stop();
    setup_cpu_s.push_back(time.cpu);
    setup_wall_s.push_back(time.wall);
  }
  const double machine_steps =
      2.0 * config.machines * static_cast<double>(setup.options.num_intervals);

  std::vector<double> wall_s;
  std::vector<double> cpu_s;
  std::vector<double> peak_rss;
  std::string first_digest;
  const int min_reps = MinReps(config);
  const auto run_start = Clock::now();
  while (static_cast<int>(wall_s.size()) < min_reps ||
         (!config.traced && SecondsSince(run_start) < config.seconds)) {
    ResetPeakMemory();
    const StepTimer timer;
    const crf::AbExperimentResult result = crf::RunAbExperiment(
        std::span<const crf::CellProfile>(&setup.profile, 1), control_spec, experiment_spec,
        setup.options, rng);
    const StepTime time = timer.Stop();
    wall_s.push_back(time.wall);
    cpu_s.push_back(time.cpu);
    peak_rss.push_back(PeakRssMiB());
    std::fprintf(stderr, "cluster_ab repetition %zu: wall %.3f s, cpu %.3f s\n", wall_s.size(),
                 wall_s.back(), cpu_s.back());
    report.Attempt(2);
    // Every repetition of a seed must reproduce the first one exactly.
    std::string digest = GroupDigest(result.control, result.experiment);
    if (config.corrupt && wall_s.size() > 1) {
      digest[0] = digest[0] == '0' ? '1' : '0';
    }
    report.Attempt();
    if (first_digest.empty()) {
      first_digest = digest;
    } else if (digest != first_digest) {
      report.Fail("A/B repetition " + std::to_string(wall_s.size()) +
                  " differs from the first (group digest " + digest + " vs " + first_digest +
                  ")");
    }
  }
  report.Info("group_digest", first_digest);

  std::vector<double> rate, cpu_rate;
  for (size_t i = 0; i < wall_s.size(); ++i) {
    rate.push_back(machine_steps / wall_s[i]);
    cpu_rate.push_back(machine_steps / cpu_s[i]);
  }
  const auto n = static_cast<int64_t>(wall_s.size());
  report.Metric("setup_s", Median(setup_cpu_s), "s", kSetupSamples);
  report.Metric("setup_wall_s", Median(setup_wall_s), "s", kSetupSamples);
  report.Metric("machine_steps_per_s", BestRate(rate), "1/s", n);
  report.Metric("throughput_per_s", BestRate(rate), "1/s", n);
  report.Metric("work_per_cpu_s", BestRate(cpu_rate), "1/s", n);
  report.Metric("peak_rss_mb", Median(peak_rss), "MiB", n);
  if (!config.traced) {
    return;
  }

  // Traced run: RunAbExperiment's two arms and its analysis as separate
  // calls (same per-cell RNG fork), so each gets its own span and the arms'
  // ClusterSimResults give exact placement counts.
  Tracer tracer;
  Tracer::Buffer* spans = tracer.NewBuffer();
  const crf::Rng cell_rng = rng.Fork(0xab000000);
  crf::ClusterSimOptions options = setup.options;
  std::vector<crf::ClusterSimResult> control(1), experiment(1);
  const auto traced_start = Clock::now();
  {
    ScopedSpan span(spans, "cluster.control");
    options.predictor = control_spec;
    control[0] = crf::RunClusterSim(setup.profile, options, cell_rng);
  }
  {
    ScopedSpan span(spans, "cluster.exp");
    options.predictor = experiment_spec;
    experiment[0] = crf::RunClusterSim(setup.profile, options, cell_rng);
  }
  GroupMetrics control_group, experiment_group;
  {
    ScopedSpan span(spans, "cluster.analyze");
    control_group = crf::ComputeGroupMetrics("control", control);
    experiment_group = crf::ComputeGroupMetrics("exp", experiment);
  }
  const double traced_wall = SecondsSince(traced_start);
  report.Attempt();
  if (GroupDigest(control_group, experiment_group) != first_digest) {
    report.Fail("the decomposed A/B differs from RunAbExperiment");
  }
  Digest placements;
  AddPlacements(placements, control[0]);
  AddPlacements(placements, experiment[0]);
  report.Info("placement_digest", placements.Hex());
  {
    crf::ClusterSimOptions serial = setup.options;
    serial.predictor = control_spec;
    serial.parallel = false;
    ScopedSpan span(spans, "cluster.control_serial");
    crf::RunClusterSim(setup.profile, serial, cell_rng);
  }

  const auto total = [&](const char* name) { return Sum(tracer.Durations(name)); };
  const double attempts =
      static_cast<double>(control[0].placement_attempts + experiment[0].placement_attempts);
  const double placed =
      static_cast<double>(control[0].tasks_placed + experiment[0].tasks_placed);
  report.Metric("cluster.control_s", total("cluster.control"), "s");
  report.Metric("cluster.exp_s", total("cluster.exp"), "s");
  report.Metric("cluster.analyze_s", total("cluster.analyze"), "s");
  report.Metric("cluster.placement_attempts", attempts, "count");
  report.Metric("cluster.tasks_placed", placed, "count");
  report.Metric("cluster.attempts_per_placed", placed > 0 ? attempts / placed : 0.0, "ratio");
  report.Metric("cluster.parallel_efficiency",
                total("cluster.control_serial") /
                    (total("cluster.control") * pool.num_threads()),
                "ratio");
  report.Metric("bench.trace_overhead_frac", traced_wall / wall_s.front() - 1.0, "ratio");
}

}  // namespace perfbench
