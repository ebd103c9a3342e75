// Per-task CPU usage synthesis.
//
// Each task's usage is a mean level (a fraction of its limit) modulated by a
// diurnal wave, an AR(1) noise process, and rare spike episodes that push
// usage toward the limit — the "task that reaches its limit 5% of the time
// but usually runs much lower" behaviour Section 2.2 identifies as the
// overcommit opportunity. Within each 5-minute interval the model emits
// kSubSamples sub-interval samples (multiplicative lognormal jitter around
// the interval level), from which the generator derives the within-interval
// percentile ladder and the machine-level true peak.
//
// Every normal the model draws comes from the ziggurat in
// crf/util/portable_math, and its exp and sine come from the same file, so
// Step calls no libm function and its output is the same bytes on every
// IEEE-754 host (workload_model.cc and portable_math.cc are both compiled
// with -ffp-contract=off).

#ifndef CRF_TRACE_WORKLOAD_MODEL_H_
#define CRF_TRACE_WORKLOAD_MODEL_H_

#include <array>
#include <span>

#include "crf/trace/trace.h"
#include "crf/util/rng.h"
#include "crf/util/time_grid.h"

namespace crf {

// Number of sub-interval samples per 5-minute interval (25-second spacing).
inline constexpr int kSubSamplesPerInterval = 12;

struct TaskUsageParams {
  double limit = 1.0;
  // Mean usage as a fraction of the limit.
  double mean_ratio = 0.5;
  // Relative amplitude of the daily sine wave (0 = flat).
  double diurnal_amplitude = 0.3;
  // Phase of the daily wave in fractional days [0, 1).
  double phase_days = 0.0;
  // AR(1) autocorrelation and stationary stddev (as a fraction of the limit).
  double ar_rho = 0.85;
  double ar_sigma = 0.06;
  // Probability per interval of starting a spike episode, the usage/limit
  // level it drives to, and its length in intervals.
  double spike_prob = 0.004;
  double spike_level = 0.95;
  Interval spike_duration = 2;
  // Lognormal sigma of within-interval sub-sample jitter.
  double within_sigma = 0.08;
  // Coupling to the cell-wide shared load factor in [0, 1]: 0 = fully
  // independent, 1 = usage scales with the shared factor. Serving jobs that
  // all face the same user traffic have high coupling; batch jobs have none.
  double load_coupling = 0.0;
};

class TaskUsageModel {
 public:
  // `interval0` is the absolute interval at which the task starts (so that
  // the diurnal phase is anchored to wall-clock time, not task age).
  TaskUsageModel(const TaskUsageParams& params, Interval interval0, Rng rng);

  // Produces the sub-interval usage samples for the next interval. Samples
  // are clamped to [0, limit]. `shared_load` is the cell-wide load factor
  // for this interval (mean 1.0); it scales usage by
  // (1 - load_coupling + load_coupling * shared_load).
  void Step(std::span<double> sub_samples, double shared_load = 1.0);

  const TaskUsageParams& params() const { return params_; }

 private:
  TaskUsageParams params_;
  Rng rng_;
  Interval next_interval_;
  double innovation_sigma_ = 0.0;
  double ar_state_ = 0.0;
  Interval spike_remaining_ = 0;
};

// Summarizes kSubSamplesPerInterval sub-samples into the stored trace data.
struct IntervalSummary {
  float scalar_p90 = 0.0f;  // the simulator's usage input (Section 5.1.2)
  RichUsage rich;
};
IntervalSummary SummarizeInterval(std::span<const double> sub_samples);

// The scalar p90 of kSubSamplesPerInterval sub-samples, bitwise equal to
// SummarizeInterval(sub_samples).scalar_p90 but found by a top-three scan
// instead of a sort: the 90th-percentile rank interpolates between the
// third- and second-largest samples.
float IntervalP90(std::span<const double> sub_samples);

}  // namespace crf

#endif  // CRF_TRACE_WORKLOAD_MODEL_H_
