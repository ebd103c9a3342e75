// The Resource-Central-like predictor (paper Section 4).
//
// Motivated by Microsoft's Resource Central: the machine peak is estimated
// as the sum over resident tasks of a percentile of each task's own recent
// usage, P(J, t) = sum_i perc_k(U_i). Tasks still warming up (fewer than
// min_num_samples samples) contribute their limit instead.
//
// Hot-path design: per-task state is one TaskHistory percentile window per
// roster slot, in the caller's roster order. Observe applies the RosterDelta
// in place (ApplyRosterDelta): departed windows are cleared onto a free list
// and arrivals reuse them, so a poll never hashes and, once the pool reaches
// the machine's high-water roster, never allocates. A re-arrival is a fresh
// slot, so it restarts warm-up.

#ifndef CRF_CORE_RC_LIKE_PREDICTOR_H_
#define CRF_CORE_RC_LIKE_PREDICTOR_H_

#include <vector>

#include "crf/core/predictor.h"
#include "crf/core/task_history.h"

namespace crf {

class RcLikePredictor : public PeakPredictor {
 public:
  RcLikePredictor(double percentile, const PredictorConfig& config);

  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override;
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

  double percentile() const { return percentile_; }

 private:
  double percentile_;
  PredictorConfig config_;

  // One window per resident task, in roster order, and the cleared windows
  // of departed tasks awaiting reuse.
  std::vector<TaskHistory> histories_;
  std::vector<TaskHistory> spare_;

  double prediction_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_RC_LIKE_PREDICTOR_H_
