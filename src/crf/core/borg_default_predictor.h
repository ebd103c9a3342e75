// The borg-default predictor (paper Section 4).
//
// Overcommits CPU by a fixed ratio: P(J, t) = phi * sum_i L_i. This is the
// static, limit-based policy Borg has run since ~2016 and that many other
// platforms adopt; phi = 1.0 degenerates to no overcommit. The paper
// calibrates phi = 0.9 from the usage-to-limit distribution (Fig 7c: ~10% of
// allocated resources are unused 95% of the time).

#ifndef CRF_CORE_BORG_DEFAULT_PREDICTOR_H_
#define CRF_CORE_BORG_DEFAULT_PREDICTOR_H_

#include "crf/core/predictor.h"

namespace crf {

class BorgDefaultPredictor : public PeakPredictor {
 public:
  explicit BorgDefaultPredictor(double phi = 0.9);

  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override { limit_sum_ = 0.0; usage_now_ = 0.0; }
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

  double phi() const { return phi_; }

 private:
  double phi_;
  double limit_sum_ = 0.0;
  double usage_now_ = 0.0;
};

}  // namespace crf

#endif  // CRF_CORE_BORG_DEFAULT_PREDICTOR_H_
