// The max predictor (paper Section 4): the pointwise maximum over a set of
// component predictors. No single predictor suits every machine at all
// times; taking the max keeps the most conservative (safest) estimate while
// still overcommitting wherever *all* components agree there is room. The
// paper's deployed configuration is max(N-sigma, RC-like).

#ifndef CRF_CORE_MAX_PREDICTOR_H_
#define CRF_CORE_MAX_PREDICTOR_H_

#include <memory>
#include <vector>

#include "crf/core/predictor.h"

namespace crf {

class MaxPredictor : public PeakPredictor {
 public:
  // Requires at least one component.
  explicit MaxPredictor(std::vector<std::unique_ptr<PeakPredictor>> components);

  void Observe(Interval now, std::span<const TaskSample> tasks,
               const RosterDelta& delta) override;
  double PredictPeak() const override;
  void Reset() override;
  std::string name() const override;

  bool SaveState(ByteWriter& out) const override;
  bool LoadState(ByteReader& in, size_t roster_size) override;

  const std::vector<std::unique_ptr<PeakPredictor>>& components() const { return components_; }

 private:
  std::vector<std::unique_ptr<PeakPredictor>> components_;
};

}  // namespace crf

#endif  // CRF_CORE_MAX_PREDICTOR_H_
