#include "crf/core/rc_like_predictor.h"

#include <cmath>
#include <cstdio>

#include "crf/core/roster_slots.h"
#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
constexpr uint8_t kStateTag = 'R';
}  // namespace

RcLikePredictor::RcLikePredictor(double percentile, const PredictorConfig& config)
    : percentile_(percentile), config_(config) {
  CRF_CHECK_GE(percentile, 0.0);
  CRF_CHECK_LE(percentile, 100.0);
  CRF_CHECK_GT(config.min_num_samples, 0);
  CRF_CHECK_GE(config.max_num_samples, config.min_num_samples);
}

void RcLikePredictor::Observe(Interval /*now*/, std::span<const TaskSample> tasks,
                              const RosterDelta& delta) {
  ApplyRosterDelta(histories_, spare_, delta, tasks.size(), config_.max_num_samples);

  double prediction = 0.0;
  double usage_now = 0.0;
  double limit_sum = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskSample& sample = tasks[i];
    TaskHistory& history = histories_[i];
    history.Push(static_cast<float>(sample.usage));

    usage_now += sample.usage;
    limit_sum += sample.limit;
    if (history.size() >= config_.min_num_samples) {
      prediction += history.Percentile(percentile_);
    } else {
      prediction += sample.limit;  // Warm-up: represent by the limit.
    }
  }
  prediction_ = ClampPrediction(prediction, usage_now, limit_sum);
}

double RcLikePredictor::PredictPeak() const { return prediction_; }

void RcLikePredictor::Reset() {
  ReleaseAllWindows(histories_, spare_);
  prediction_ = 0.0;
}

std::string RcLikePredictor::name() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "rc-like-p%.0f", percentile_);
  return buffer;
}

bool RcLikePredictor::SaveState(ByteWriter& out) const {
  out.Write<uint8_t>(kStateTag);
  SaveWindows(histories_, out);
  out.Write<double>(prediction_);
  return true;
}

bool RcLikePredictor::LoadState(ByteReader& in, size_t roster_size) {
  std::vector<TaskHistory> histories;
  if (in.Read<uint8_t>() != kStateTag ||
      !LoadWindows(in, roster_size, config_.max_num_samples, histories)) {
    in.Fail();
    return false;
  }
  const double prediction = in.Read<double>();
  if (!in.ok() || !std::isfinite(prediction) || prediction < 0.0) {
    in.Fail();
    return false;
  }
  histories_ = std::move(histories);
  spare_.clear();
  prediction_ = prediction;
  return true;
}

}  // namespace crf
