#include "crf/cluster/machine.h"

#include <algorithm>
#include <array>

#include "crf/util/check.h"

namespace crf {

ClusterMachine::ClusterMachine(int machine_index, double capacity,
                               std::unique_ptr<PeakPredictor> predictor,
                               const LatencyModelParams& latency, const Rng& rng)
    : machine_index_(machine_index),
      capacity_(capacity),
      predictor_(std::move(predictor)),
      latency_model_(latency, rng.Fork(0x6c6174)),  // "lat"
      usage_rng_(rng.Fork(0x757367)) {              // "usg"
  CRF_CHECK_GT(capacity, 0.0);
  CRF_CHECK(predictor_ != nullptr);
}

void ClusterMachine::StartTask(CellTraceBuilder& trace, int32_t trace_index,
                               const TaskUsageParams& params, Interval now, Interval runtime) {
  CRF_CHECK_GE(trace_index, 0);
  CRF_CHECK_LT(trace_index, trace.num_tasks());
  CRF_CHECK_GT(runtime, 0);
  CRF_CHECK_EQ(trace.task_machine(trace_index), machine_index_);
  CRF_CHECK_EQ(trace.task_start(trace_index), now);
  trace.ReserveUsage(trace_index, runtime);
  tasks_.push_back({trace_index, now + runtime,
                    TaskUsageModel(params, now,
                                   usage_rng_.Fork(
                                       static_cast<uint64_t>(trace.task_id(trace_index))))});
}

ClusterMachine::StepStats ClusterMachine::Step(Interval now, double shared_load,
                                               CellTraceBuilder& trace) {
  // Retire tasks whose lifetime ended, in place and in order, recording the
  // positions the predictor last saw them at.
  departed_scratch_.clear();
  size_t out = 0;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].end > now) {
      if (out != i) {
        tasks_[out] = std::move(tasks_[i]);
      }
      ++out;
    } else if (i < observed_) {
      departed_scratch_.push_back(static_cast<int32_t>(i));
    }
  }
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(out), tasks_.end());
  const RosterDelta delta{departed_scratch_,
                          static_cast<int32_t>(tasks_.size() + departed_scratch_.size() -
                                               observed_)};
  observed_ = tasks_.size();

  StepStats stats;
  stats.resident_tasks = static_cast<int>(tasks_.size());

  std::array<double, kSubSamplesPerInterval> sub_samples;
  std::array<double, kSubSamplesPerInterval> sums{};
  samples_scratch_.clear();

  for (auto& running : tasks_) {
    running.model.Step(sub_samples, shared_load);
    const float p90 = IntervalP90(sub_samples);
    trace.AppendUsage(running.trace_index, p90);
    for (int k = 0; k < kSubSamplesPerInterval; ++k) {
      sums[k] += sub_samples[k];
    }
    const double limit = trace.task_limit(running.trace_index);
    stats.usage_sum += p90;
    stats.limit_sum += limit;
    samples_scratch_.push_back({trace.task_id(running.trace_index), p90, limit});
  }

  double mean_demand = 0.0;
  double peak_demand = 0.0;
  for (const double s : sums) {
    mean_demand += s;
    peak_demand = std::max(peak_demand, s);
  }
  mean_demand /= kSubSamplesPerInterval;
  stats.demand_mean = mean_demand;
  stats.demand_peak = peak_demand;
  std::vector<float>& true_peak = trace.mutable_true_peak(machine_index_);
  if (static_cast<size_t>(now) < true_peak.size()) {
    true_peak[now] = static_cast<float>(peak_demand);
  }

  stats.latency = latency_model_.Sample(mean_demand, peak_demand, capacity_);

  predictor_->Observe(now, samples_scratch_, delta);
  prediction_ = predictor_->PredictPeak();
  stats.prediction = prediction_;
  stats.free_capacity = FreeCapacity();
  return stats;
}

double ClusterMachine::FreeCapacity() const { return std::max(0.0, capacity_ - prediction_); }

}  // namespace crf
