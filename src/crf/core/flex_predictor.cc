#include "crf/core/flex_predictor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
constexpr uint8_t kStateTag = 'F';
}  // namespace

FlexPredictor::FlexPredictor(double percentile, double margin, const PredictorConfig& config)
    : percentile_(percentile),
      margin_(margin),
      config_(config),
      ratios_(config.max_num_samples) {
  CRF_CHECK_GE(percentile, 0.0);
  CRF_CHECK_LE(percentile, 100.0);
  CRF_CHECK_GE(margin, 1.0);
  CRF_CHECK_GT(config.min_num_samples, 0);
  CRF_CHECK_GE(config.max_num_samples, config.min_num_samples);
}

void FlexPredictor::Observe(Interval /*now*/, std::span<const TaskSample> tasks,
                            const RosterDelta& /*delta*/) {
  double usage_now = 0.0;
  double limit_sum = 0.0;
  for (const TaskSample& sample : tasks) {
    usage_now += sample.usage;
    limit_sum += sample.limit;
  }

  // An empty machine has no gap to learn from (0/0); the ratio window only
  // sees occupied polls, so idle stretches neither age out history nor drag
  // the learned phi toward zero.
  if (limit_sum > 0.0) {
    ratios_.Push(static_cast<float>(usage_now / limit_sum));
  }
  const double phi = ratios_.size() >= config_.min_num_samples
                         ? std::min(1.0, margin_ * ratios_.Percentile(percentile_))
                         : 1.0;
  prediction_ = ClampPrediction(phi * limit_sum, usage_now, limit_sum);
}

double FlexPredictor::PredictPeak() const { return prediction_; }

void FlexPredictor::Reset() {
  ratios_.Clear();
  prediction_ = 0.0;
}

std::string FlexPredictor::name() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "flex-p%g-m%g", percentile_, margin_);
  return buffer;
}

bool FlexPredictor::SaveState(ByteWriter& out) const {
  out.Write<uint8_t>(kStateTag);
  ratios_.SaveState(out);
  out.Write<double>(prediction_);
  return true;
}

bool FlexPredictor::LoadState(ByteReader& in, size_t /*roster_size*/) {
  const uint8_t tag = in.Read<uint8_t>();
  if (!in.ok() || tag != kStateTag) {
    in.Fail();
    return false;
  }
  if (!ratios_.LoadState(in)) {
    return false;
  }
  const double prediction = in.Read<double>();
  if (!in.ok() || !std::isfinite(prediction) || prediction < 0.0) {
    in.Fail();
    return false;
  }
  prediction_ = prediction;
  return true;
}

}  // namespace crf
