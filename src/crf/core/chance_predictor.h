// The chance-constrained predictor (extension; cf. Cohen et al.,
// "Overcommitment in Cloud Services — Bin Packing with Chance Constraints",
// arXiv:1705.09335).
//
// Instead of a Gaussian closure (n-sigma) or a per-task percentile sum
// (rc-like), the predictor sizes the peak directly to a target per-interval
// violation probability epsilon: it keeps the empirical distribution of the
// machine-level aggregate usage of warmed-up tasks over the history window
// and publishes its (1 - epsilon) quantile, so a stationary workload
// violates the prediction in at most an epsilon fraction of intervals by
// construction. Tasks still warming up contribute their limit on top, as in
// the other usage-driven families.
//
// Hot-path design mirrors NSigmaPredictor: per-task state is only the
// warm-up counter per roster slot, moved through each RosterDelta in place.
// The machine-level empirical distribution lives in one order-statistics
// window (TaskHistory), so each poll costs one push plus one O(1) quantile
// selection.

#ifndef CRF_CORE_CHANCE_PREDICTOR_H_
#define CRF_CORE_CHANCE_PREDICTOR_H_

#include <vector>

#include "crf/core/predictor.h"
#include "crf/core/task_history.h"

namespace crf {

class ChancePredictor : public PeakPredictor {
 public:
  // `target` is the acceptable per-interval violation probability epsilon,
  // in (0, 1) exclusive.
  ChancePredictor(double target, const PredictorConfig& config);

  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override;
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

  double target() const { return target_; }

 private:
  double target_;
  PredictorConfig config_;

  // Warm-up counter per resident task, in roster order.
  std::vector<Interval> samples_seen_;

  // Machine-level aggregate usage of warmed tasks over the last
  // max_num_samples polls (the empirical load distribution).
  TaskHistory window_;

  double prediction_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_CHANCE_PREDICTOR_H_
