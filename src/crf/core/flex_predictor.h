// The Flex-style allocation-gap predictor (extension; cf. "Take it to the
// limit" follow-up work on adaptive overcommit ratios, and Newell et al.'s
// RAS/Flex resource-adjustment line, arXiv:2006.01354).
//
// borg-default multiplies the limit sum by one hand-tuned, fleet-wide phi.
// Flex instead learns phi per machine from the observed usage-to-limit gap:
// it windows the machine's aggregate usage/limit ratio and publishes
//   P = min(1, margin * perc_p(usage/limit over the window)) * limit_sum,
// so chronically over-provisioned machines earn an aggressive (small) phi
// while machines that run close to their limits keep a conservative one.
// Until the window has min_num_samples ratios the effective phi is 1 (pure
// limit sum) — the machine-level analogue of per-task warm-up.
//
// Hot-path design: there is no per-task state at all — one ratio push and
// one O(log n) percentile per poll — making this the cheapest usage-driven
// family; empty-machine intervals (limit sum 0) push nothing, since 0/0 says
// nothing about the gap.

#ifndef CRF_CORE_FLEX_PREDICTOR_H_
#define CRF_CORE_FLEX_PREDICTOR_H_

#include "crf/core/predictor.h"
#include "crf/core/task_history.h"

namespace crf {

class FlexPredictor : public PeakPredictor {
 public:
  // `percentile` in [0, 100] ranks the observed usage/limit ratios;
  // `margin` >= 1 is the safety factor applied on top.
  FlexPredictor(double percentile, double margin, const PredictorConfig& config);

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

  // Machine-level usage/limit ratios over the last max_num_samples occupied
  // polls.
  TaskHistory ratios_;

  double prediction_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_FLEX_PREDICTOR_H_
