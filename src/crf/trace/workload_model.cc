#include "crf/trace/workload_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "crf/util/check.h"
#include "crf/util/portable_math.h"

namespace crf {

TaskUsageModel::TaskUsageModel(const TaskUsageParams& params, Interval interval0, Rng rng)
    : params_(params), rng_(rng), next_interval_(interval0) {
  CRF_CHECK_GT(params_.limit, 0.0);
  CRF_CHECK_GE(params_.mean_ratio, 0.0);
  CRF_CHECK_LE(params_.mean_ratio, 1.0);
  CRF_CHECK_GE(params_.ar_rho, 0.0);
  CRF_CHECK_LT(params_.ar_rho, 1.0);
  // AR(1) innovation scaled so the stationary stddev equals ar_sigma.
  innovation_sigma_ = params_.ar_sigma * std::sqrt(1.0 - params_.ar_rho * params_.ar_rho);
  // Start the AR process at its stationary distribution so tasks do not all
  // begin at their mean.
  ar_state_ = params_.ar_sigma * ZigguratNormal(rng_);
}

void TaskUsageModel::Step(std::span<double> sub_samples, double shared_load) {
  CRF_CHECK_EQ(sub_samples.size(), static_cast<size_t>(kSubSamplesPerInterval));
  const Interval t = next_interval_++;

  const double day_position = static_cast<double>(t) / kIntervalsPerDay - params_.phase_days;
  const double wave = SinTurns(day_position);
  const double base = params_.mean_ratio * (1.0 + params_.diurnal_amplitude * wave);

  ar_state_ = params_.ar_rho * ar_state_ + innovation_sigma_ * ZigguratNormal(rng_);

  if (spike_remaining_ > 0) {
    --spike_remaining_;
  } else if (rng_.Bernoulli(params_.spike_prob)) {
    spike_remaining_ = params_.spike_duration;
  }

  const double load_mix =
      1.0 - params_.load_coupling + params_.load_coupling * shared_load;
  double ratio = (base + ar_state_) * std::max(0.0, load_mix);
  if (spike_remaining_ > 0) {
    ratio = std::max(ratio, params_.spike_level + 0.02 * ZigguratNormal(rng_));
  }
  ratio = std::clamp(ratio, 0.01, 1.0);
  const double level = ratio * params_.limit;

  // Mean-preserving lognormal jitter: E[exp(N(-s^2/2, s))] = 1.
  const double s = params_.within_sigma;
  const double mu = -0.5 * s * s;
  for (double& sample : sub_samples) {
    sample = mu + s * ZigguratNormal(rng_);
  }
  PortableExpInPlace(sub_samples);
  for (double& sample : sub_samples) {
    sample = std::clamp(level * sample, 0.0, params_.limit);
  }
}

namespace {

// Linear interpolation between order statistics at percentile `p`, shared by
// the sorted ladder and the top-three scan so both round identically.
struct PercentileRank {
  int lo;
  int hi;
  double frac;
};

constexpr PercentileRank RankOf(double p) {
  const double rank = p / 100.0 * (kSubSamplesPerInterval - 1);
  const int lo = static_cast<int>(rank);
  return {lo, std::min(lo + 1, kSubSamplesPerInterval - 1), rank - lo};
}

float Interpolate(double lo_value, double hi_value, double frac) {
  return static_cast<float>(lo_value + frac * (hi_value - lo_value));
}

}  // namespace

IntervalSummary SummarizeInterval(std::span<const double> sub_samples) {
  CRF_CHECK_EQ(sub_samples.size(), static_cast<size_t>(kSubSamplesPerInterval));
  std::array<double, kSubSamplesPerInterval> sorted;
  std::copy(sub_samples.begin(), sub_samples.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());

  auto at = [&sorted](double p) {
    const PercentileRank r = RankOf(p);
    return Interpolate(sorted[r.lo], sorted[r.hi], r.frac);
  };

  IntervalSummary summary;
  double sum = 0.0;
  for (const double v : sorted) {
    sum += v;
  }
  summary.rich.avg = static_cast<float>(sum / kSubSamplesPerInterval);
  summary.rich.p50 = at(50);
  summary.rich.p60 = at(60);
  summary.rich.p70 = at(70);
  summary.rich.p80 = at(80);
  summary.rich.p90 = at(90);
  summary.rich.p95 = at(95);
  summary.rich.p99 = at(99);
  summary.rich.max = static_cast<float>(sorted.back());
  summary.scalar_p90 = summary.rich.p90;
  return summary;
}

float IntervalP90(std::span<const double> sub_samples) {
  CRF_CHECK_EQ(sub_samples.size(), static_cast<size_t>(kSubSamplesPerInterval));
  constexpr PercentileRank kP90 = RankOf(90);
  static_assert(kP90.lo == kSubSamplesPerInterval - 3 && kP90.hi == kSubSamplesPerInterval - 2,
                "the p90 rank must sit between the third- and second-largest samples");
  // top[0] >= top[1] >= top[2] are the three largest samples (with
  // multiplicity), i.e. sorted[11], sorted[10] and sorted[9].
  constexpr double kLowest = -std::numeric_limits<double>::infinity();
  double top[3] = {kLowest, kLowest, kLowest};
  for (const double v : sub_samples) {
    if (v > top[2]) {
      if (v > top[1]) {
        top[2] = top[1];
        if (v > top[0]) {
          top[1] = top[0];
          top[0] = v;
        } else {
          top[1] = v;
        }
      } else {
        top[2] = v;
      }
    }
  }
  return Interpolate(top[2], top[1], kP90.frac);
}

}  // namespace crf
