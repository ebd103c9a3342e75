#include "crf/core/n_sigma_predictor.h"

#include <cmath>
#include <cstdio>

#include "crf/core/roster_slots.h"
#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
constexpr uint8_t kStateTag = 'N';
}  // namespace

NSigmaPredictor::NSigmaPredictor(double n, const PredictorConfig& config)
    : n_(n), config_(config), window_(config.max_num_samples) {
  CRF_CHECK_GT(n, 0.0);
  CRF_CHECK_GT(config.min_num_samples, 0);
  CRF_CHECK_GE(config.max_num_samples, config.min_num_samples);
}

void NSigmaPredictor::Observe(Interval /*now*/, std::span<const TaskSample> tasks,
                              const RosterDelta& delta) {
  ApplyRosterDelta(samples_seen_, delta, tasks.size(), Interval{0});

  double warmed_usage = 0.0;
  double warming_limit = 0.0;
  double usage_now = 0.0;
  double limit_sum = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const TaskSample& sample = tasks[i];
    usage_now += sample.usage;
    limit_sum += sample.limit;
    if (++samples_seen_[i] >= config_.min_num_samples) {
      warmed_usage += sample.usage;
    } else {
      warming_limit += sample.limit;
    }
  }

  window_.Push(warmed_usage);
  // Mean before Stddev: Stddev may refresh the running moments, and the
  // published mean must be the one the variance was computed against.
  const double mean = window_.Mean();
  const double stddev = window_.Stddev();
  prediction_ = ClampPrediction(mean + n_ * stddev + warming_limit, usage_now, limit_sum);
}

double NSigmaPredictor::PredictPeak() const { return prediction_; }

void NSigmaPredictor::Reset() {
  samples_seen_.clear();
  window_.Reset();
  prediction_ = 0.0;
}

std::string NSigmaPredictor::name() const {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "n-sigma-%.0f", n_);
  return buffer;
}

bool NSigmaPredictor::SaveState(ByteWriter& out) const {
  out.Write<uint8_t>(kStateTag);
  out.WriteVec(samples_seen_);
  window_.SaveState(out);
  out.Write<double>(prediction_);
  return true;
}

bool NSigmaPredictor::LoadState(ByteReader& in, size_t roster_size) {
  const uint8_t tag = in.Read<uint8_t>();
  std::vector<Interval> samples_seen;
  if (!in.ReadVec(samples_seen, roster_size) || tag != kStateTag ||
      samples_seen.size() != roster_size) {
    in.Fail();
    return false;
  }
  for (const Interval seen : samples_seen) {
    if (seen < 0) {
      in.Fail();
      return false;
    }
  }
  if (!window_.LoadState(in)) {
    return false;
  }
  const double prediction = in.Read<double>();
  if (!in.ok() || !std::isfinite(prediction) || prediction < 0.0) {
    in.Fail();
    return false;
  }
  samples_seen_ = std::move(samples_seen);
  prediction_ = prediction;
  return true;
}

}  // namespace crf
