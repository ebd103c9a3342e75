// An Autopilot-like per-task limit baseline (paper Section 2.2).
//
// Autopilot [Rzadca et al., EuroSys'20] right-sizes each task's *limit* to a
// high percentile of its observed usage plus a safety margin. As an
// overcommit policy this corresponds to predicting the machine peak as the
// sum of per-task Autopilot limits:
//
//   P(J, t) = sum_i min(L_i, margin * perc_k(U_i history))
//
// The paper's argument is that even a perfect per-task limit tuner leaves
// the pooling gap on the table: tasks do not peak together, so the sum of
// tight per-task ceilings still overestimates the machine peak. This
// predictor makes that argument measurable — it sits between the RC-like
// percentile sum (margin = 1) and the raw limit sum.
//
// Per-task state is RcLikePredictor's: one TaskHistory window per roster
// slot, moved through each RosterDelta in place with departed windows
// reused from a free list.

#ifndef CRF_CORE_AUTOPILOT_PREDICTOR_H_
#define CRF_CORE_AUTOPILOT_PREDICTOR_H_

#include <vector>

#include "crf/core/predictor.h"
#include "crf/core/task_history.h"

namespace crf {

class AutopilotPredictor : public PeakPredictor {
 public:
  // `percentile` and `margin` follow Autopilot's defaults: the 98th
  // percentile of recent usage with a ~10-15% safety margin.
  AutopilotPredictor(double percentile, double margin, const PredictorConfig& config);

  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override;
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

  double percentile() const { return percentile_; }
  double margin() const { return margin_; }

 private:
  double percentile_;
  double margin_;
  PredictorConfig config_;
  // One window per resident task, in roster order, and the cleared windows
  // of departed tasks awaiting reuse.
  std::vector<TaskHistory> histories_;
  std::vector<TaskHistory> spare_;
  double prediction_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_AUTOPILOT_PREDICTOR_H_
