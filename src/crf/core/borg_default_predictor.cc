#include "crf/core/borg_default_predictor.h"

#include <cmath>
#include <cstdio>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
constexpr uint8_t kStateTag = 'B';
}  // namespace

BorgDefaultPredictor::BorgDefaultPredictor(double phi) : phi_(phi) {
  CRF_CHECK_GT(phi, 0.0);
  CRF_CHECK_LE(phi, 1.0);
}

void BorgDefaultPredictor::Observe(Interval /*now*/, std::span<const TaskSample> tasks,
                                   const RosterDelta& /*delta*/) {
  limit_sum_ = 0.0;
  usage_now_ = 0.0;
  for (const TaskSample& task : tasks) {
    limit_sum_ += task.limit;
    usage_now_ += task.usage;
  }
}

double BorgDefaultPredictor::PredictPeak() const {
  return ClampPrediction(phi_ * limit_sum_, usage_now_, limit_sum_);
}

std::string BorgDefaultPredictor::name() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "borg-default-%.2f", phi_);
  return buffer;
}

bool BorgDefaultPredictor::SaveState(ByteWriter& out) const {
  out.Write<uint8_t>(kStateTag);
  out.Write<double>(limit_sum_);
  out.Write<double>(usage_now_);
  return true;
}

bool BorgDefaultPredictor::LoadState(ByteReader& in, size_t /*roster_size*/) {
  const uint8_t tag = in.Read<uint8_t>();
  const double limit_sum = in.Read<double>();
  const double usage_now = in.Read<double>();
  if (!in.ok() || tag != kStateTag || !std::isfinite(limit_sum) || limit_sum < 0.0 ||
      !std::isfinite(usage_now) || usage_now < 0.0) {
    in.Fail();
    return false;
  }
  limit_sum_ = limit_sum;
  usage_now_ = usage_now;
  return true;
}

}  // namespace crf
