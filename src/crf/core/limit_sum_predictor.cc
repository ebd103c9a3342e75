#include "crf/core/limit_sum_predictor.h"

#include <cmath>

#include "crf/util/byte_io.h"

namespace crf {

namespace {
constexpr uint8_t kStateTag = 'L';
}  // namespace

void LimitSumPredictor::Observe(Interval /*now*/, std::span<const TaskSample> tasks,
                                const RosterDelta& /*delta*/) {
  limit_sum_ = 0.0;
  for (const TaskSample& task : tasks) {
    limit_sum_ += task.limit;
  }
}

double LimitSumPredictor::PredictPeak() const { return limit_sum_; }

bool LimitSumPredictor::SaveState(ByteWriter& out) const {
  out.Write<uint8_t>(kStateTag);
  out.Write<double>(limit_sum_);
  return true;
}

bool LimitSumPredictor::LoadState(ByteReader& in, size_t /*roster_size*/) {
  const uint8_t tag = in.Read<uint8_t>();
  const double limit_sum = in.Read<double>();
  if (!in.ok() || tag != kStateTag || !std::isfinite(limit_sum) || limit_sum < 0.0) {
    in.Fail();
    return false;
  }
  limit_sum_ = limit_sum;
  return true;
}

}  // namespace crf
