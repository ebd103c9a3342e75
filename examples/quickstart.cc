// Quickstart: the 60-second tour of the library.
//
// 1. Drive a peak predictor by hand (the node-agent view).
// 2. Generate a synthetic cell, run the trace-driven simulator, and compare
//    predictors by violation rate and savings (the paper's Section 5 loop).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/util/table.h"

using namespace crf;  // NOLINT: example brevity.

int main() {
  // --- 1. A predictor is just an object the Borglet polls. -----------------
  auto predictor = CreatePredictor(ProductionMaxSpec());  // max(3-sigma, rc-p80)
  Rng rng(1);
  std::vector<TaskSample> tasks = {
      {/*task_id=*/1, /*usage=*/0.0, /*limit=*/0.30},
      {/*task_id=*/2, /*usage=*/0.0, /*limit=*/0.20},
  };
  for (Interval now = 0; now < 6 * kIntervalsPerHour; ++now) {
    tasks[0].usage = 0.30 * (0.4 + 0.2 * rng.UniformDouble());
    tasks[1].usage = 0.20 * (0.5 + 0.3 * rng.UniformDouble());
    // Each poll names the roster change since the last one: both tasks
    // arrive at the first poll, and nothing changes after that.
    predictor->Observe(now, tasks, RosterDelta{.arrived = now == 0 ? 2 : 0});
  }
  std::printf("predictor %s\n", predictor->name().c_str());
  std::printf("  sum of limits        : %.3f cores\n", 0.30 + 0.20);
  std::printf("  predicted future peak: %.3f cores\n", predictor->PredictPeak());
  std::printf("  -> the scheduler can advertise %.3f extra cores on this machine\n\n",
              0.50 - predictor->PredictPeak());

  // --- 2. Evaluate policies against the clairvoyant peak oracle. -----------
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 32;  // Keep the example fast.
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  CellTrace cell = GenerateCellTrace(profile, options, Rng(42));
  cell.FilterToServingTasks();  // Classes 2-3, like the paper.
  std::printf("generated %s: %d machines, %d serving tasks, %d intervals\n\n",
              cell.name.c_str(), cell.num_machines(), cell.num_tasks(),
              cell.num_intervals);

  Table table({"predictor", "mean violation rate", "mean cell savings"});
  for (const PredictorSpec& spec : {LimitSumSpec(), BorgDefaultSpec(0.9), RcLikeSpec(99.0),
                                    NSigmaSpec(5.0), SimulationMaxSpec()}) {
    const SimResult result = SimulateCell(cell, spec);
    table.AddRow(result.predictor_name,
                 {result.MeanViolationRate(), result.MeanCellSavings()});
  }
  table.Print();
  std::printf("\nviolation rate = how often the prediction dipped below the true future\n"
              "peak (risk); savings = capacity reclaimed vs no overcommitment (reward).\n");
  return 0;
}
