// The N-sigma predictor (paper Section 4).
//
// Approximates the machine's total load as Gaussian (valid for sums of many
// task loads even when the per-task distributions are not, cf. [Janus &
// Rzadca, SoCC'17]): P(J, t) = mean(U(J)) + N * std(U(J)) computed over a
// moving window of the machine-level aggregate usage of warmed-up tasks;
// tasks still warming up contribute their limit on top. N = 2 approximates
// the 95th percentile of the load distribution, N = 3 the 99th.
//
// Hot-path design: the only per-task state is a warm-up counter per roster
// slot, in the caller's roster order; Observe moves it through the
// RosterDelta in place (ApplyRosterDelta), so no poll hashes a task id. The
// window statistics live in an AggregateWindow (ring buffer + running
// sum/sum-of-squares with an exact Welford fallback), shared with the sweep
// engine so both compute identical statistics.

#ifndef CRF_CORE_N_SIGMA_PREDICTOR_H_
#define CRF_CORE_N_SIGMA_PREDICTOR_H_

#include <vector>

#include "crf/core/aggregate_window.h"
#include "crf/core/predictor.h"

namespace crf {

class NSigmaPredictor : public PeakPredictor {
 public:
  NSigmaPredictor(double n, const PredictorConfig& config);

  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override;
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

  double n() const { return n_; }

 private:
  double n_;
  PredictorConfig config_;

  // Warm-up counter per resident task, in roster order.
  std::vector<Interval> samples_seen_;

  // Machine-level aggregate usage of warmed tasks over the last
  // max_num_samples polls.
  AggregateWindow window_;

  double prediction_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_N_SIGMA_PREDICTOR_H_
