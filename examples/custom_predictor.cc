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

#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/util/table.h"

using namespace crf;  // NOLINT: example brevity.

namespace {

class EwmaPredictor : public PeakPredictor {
 public:
  EwmaPredictor(double alpha, double headroom, Interval min_num_samples)
      : alpha_(alpha), headroom_(headroom), min_num_samples_(min_num_samples) {}

  void Observe(Interval now, std::span<const TaskSample> tasks) override {
    double warmed_usage = 0.0;
    double warming_limit = 0.0;
    double usage_now = 0.0;
    double limit_sum = 0.0;
    for (const TaskSample& task : tasks) {
      TaskState& state = tasks_[task.task_id];
      ++state.samples;
      state.last_seen = now;
      usage_now += task.usage;
      limit_sum += task.limit;
      if (state.samples >= min_num_samples_) {
        warmed_usage += task.usage;
      } else {
        warming_limit += task.limit;
      }
    }
    std::erase_if(tasks_, [now](const auto& e) { return e.second.last_seen != now; });

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
    tasks_.clear();
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
  struct TaskState {
    Interval samples = 0;
    Interval last_seen = -1;
  };

  double alpha_;
  double headroom_;
  Interval min_num_samples_;
  std::unordered_map<TaskId, TaskState> tasks_;
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
