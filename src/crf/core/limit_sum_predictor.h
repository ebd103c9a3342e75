// The most conservative predictor: the sum of resident tasks' limits.
//
// P(J, t) = sum_i L_i — never overcommits, never violates the oracle (usage
// is capped at limits), and yields zero savings. This is the paper's "no
// overcommitment" reference point (Section 3.2).

#ifndef CRF_CORE_LIMIT_SUM_PREDICTOR_H_
#define CRF_CORE_LIMIT_SUM_PREDICTOR_H_

#include "crf/core/predictor.h"

namespace crf {

class LimitSumPredictor : public PeakPredictor {
 public:
  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override { limit_sum_ = 0.0; }
  std::string name() const override { return "limit-sum"; }

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

 private:
  double limit_sum_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_LIMIT_SUM_PREDICTOR_H_
