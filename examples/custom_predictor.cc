// Writing a new overcommit policy.
//
// The artifact's stated purpose is "to enable future work on designing
// overcommit policies": implement PeakPredictor, hand SimulateCell a factory
// for it, and the whole evaluation pipeline (oracle comparison, violation
// and tail metrics, savings) works unchanged.
//
// This example adds an EWMA-with-error-headroom predictor: an exponentially
// weighted moving average of machine usage plus a multiple of the EWMA of
// absolute one-step errors (a cheap, O(1)-memory cousin of N-sigma), and
// races it against the built-ins.
//
// Per-task state (here a warm-up counter) is kept in roster order: each
// Observe names the roster change as a RosterDelta, and ApplyRosterDelta
// drops the departed slots and appends fresh ones for the arrivals.

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "crf/core/roster_slots.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/util/table.h"

using namespace crf;  // NOLINT: example brevity.

namespace {

class EwmaPredictor : public PeakPredictor {
 public:
  EwmaPredictor(double alpha, double headroom, Interval min_num_samples)
      : alpha_(alpha), headroom_(headroom), min_num_samples_(min_num_samples) {}

  void Observe(Interval /*now*/, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override {
    ApplyRosterDelta(samples_seen_, delta, tasks.size(), Interval{0});
    double warmed_usage = 0.0;
    double warming_limit = 0.0;
    double usage_now = 0.0;
    double limit_sum = 0.0;
    for (size_t i = 0; i < tasks.size(); ++i) {
      usage_now += tasks[i].usage;
      limit_sum += tasks[i].limit;
      if (++samples_seen_[i] >= min_num_samples_) {
        warmed_usage += tasks[i].usage;
      } else {
        warming_limit += tasks[i].limit;
      }
    }

    if (!initialized_) {
      ewma_ = warmed_usage;
      error_ewma_ = 0.0;
      initialized_ = true;
    } else {
      error_ewma_ = alpha_ * std::abs(warmed_usage - ewma_) + (1.0 - alpha_) * error_ewma_;
      ewma_ = alpha_ * warmed_usage + (1.0 - alpha_) * ewma_;
    }
    const double raw = ewma_ + headroom_ * error_ewma_ + warming_limit;
    prediction_ = ClampPrediction(raw, usage_now, limit_sum);
  }

  double PredictPeak() const override { return prediction_; }

  void Reset() override {
    samples_seen_.clear();
    initialized_ = false;
    ewma_ = 0.0;
    error_ewma_ = 0.0;
    prediction_ = 0.0;
  }

  std::string name() const override {
    char buffer[48];
    std::snprintf(buffer, sizeof(buffer), "ewma-a%.2f-h%.0f", alpha_, headroom_);
    return buffer;
  }

 private:
  double alpha_;
  double headroom_;
  Interval min_num_samples_;
  std::vector<Interval> samples_seen_;  // Per resident task, roster order.
  bool initialized_ = false;
  double ewma_ = 0.0;
  double error_ewma_ = 0.0;
  double prediction_ = 0.0;
};

}  // namespace

int main() {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 32;
  GeneratorOptions options;
  options.num_intervals = 3 * kIntervalsPerDay;
  CellTrace cell = GenerateCellTrace(profile, options, Rng(7));
  cell.FilterToServingTasks();
  std::printf("cell: %d machines, %d tasks\n\n", cell.num_machines(), cell.num_tasks());

  Table table({"predictor", "mean violation rate", "mean cell savings"});

  for (const double headroom : {2.0, 4.0, 8.0}) {
    const SimResult result = SimulateCell(cell, [headroom] {
      return std::make_unique<EwmaPredictor>(0.05, headroom, 2 * kIntervalsPerHour);
    });
    table.AddRow(result.predictor_name,
                 {result.MeanViolationRate(), result.MeanCellSavings()});
  }
  for (const PredictorSpec& spec : {NSigmaSpec(5.0), SimulationMaxSpec()}) {
    const SimResult result = SimulateCell(cell, spec);
    table.AddRow(result.predictor_name,
                 {result.MeanViolationRate(), result.MeanCellSavings()});
  }
  table.Print();
  std::printf("\nTune the headroom multiplier and watch the risk/savings trade-off move,\n"
              "exactly like Figs 8-9 do for N-sigma and RC-like.\n");
  return 0;
}
