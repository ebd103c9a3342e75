#include "crf/core/predictor_factory.h"

#include <utility>

#include "crf/core/autopilot_predictor.h"
#include "crf/core/borg_default_predictor.h"
#include "crf/core/chance_predictor.h"
#include "crf/core/flex_predictor.h"
#include "crf/core/limit_sum_predictor.h"
#include "crf/core/max_predictor.h"
#include "crf/core/n_sigma_predictor.h"
#include "crf/core/rc_like_predictor.h"
#include "crf/util/check.h"

namespace crf {

std::string PredictorSpec::Name() const {
  // Instantiate-and-ask keeps names in one place.
  return CreatePredictor(*this)->name();
}

PredictorSpec LimitSumSpec() {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kLimitSum;
  return spec;
}

PredictorSpec BorgDefaultSpec(double phi) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kBorgDefault;
  spec.phi = phi;
  return spec;
}

PredictorSpec RcLikeSpec(double percentile, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kRcLike;
  spec.percentile = percentile;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec NSigmaSpec(double n, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kNSigma;
  spec.n_sigma = n;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec AutopilotSpec(double percentile, double margin, Interval warmup,
                            Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kAutopilot;
  spec.percentile = percentile;
  spec.margin = margin;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec ChanceSpec(double target, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kChance;
  spec.target = target;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec FlexSpec(double percentile, double margin, Interval warmup, Interval history) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kFlex;
  spec.percentile = percentile;
  spec.margin = margin;
  spec.config.min_num_samples = warmup;
  spec.config.max_num_samples = history;
  return spec;
}

PredictorSpec MaxSpec(std::vector<PredictorSpec> components) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kMax;
  spec.components = std::move(components);
  return spec;
}

PredictorSpec SimulationMaxSpec() { return MaxSpec({NSigmaSpec(5.0), RcLikeSpec(99.0)}); }

PredictorSpec ProductionMaxSpec() { return MaxSpec({NSigmaSpec(3.0), RcLikeSpec(80.0)}); }

std::vector<PredictorSpec> SweepGridSpecs() {
  std::vector<PredictorSpec> specs;
  for (const double n : {2.0, 3.0, 5.0, 10.0}) {
    specs.push_back(NSigmaSpec(n));
  }
  for (const int hours : {1, 2, 3}) {
    specs.push_back(NSigmaSpec(5.0, hours * kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    specs.push_back(NSigmaSpec(5.0, 2 * kIntervalsPerHour, hours * kIntervalsPerHour));
  }
  for (const double p : {80.0, 90.0, 95.0, 99.0}) {
    specs.push_back(RcLikeSpec(p));
  }
  for (const int hours : {1, 2, 3}) {
    specs.push_back(RcLikeSpec(95.0, hours * kIntervalsPerHour));
  }
  for (const int hours : {2, 5, 10}) {
    specs.push_back(RcLikeSpec(95.0, 2 * kIntervalsPerHour, hours * kIntervalsPerHour));
  }
  for (const double target : {0.005, 0.01, 0.05, 0.10}) {
    specs.push_back(ChanceSpec(target));
  }
  for (const double p : {90.0, 95.0, 99.0}) {
    specs.push_back(FlexSpec(p));
  }
  return specs;
}

std::unique_ptr<PeakPredictor> CreatePredictor(const PredictorSpec& spec) {
  switch (spec.type) {
    case PredictorSpec::Type::kLimitSum:
      return std::make_unique<LimitSumPredictor>();
    case PredictorSpec::Type::kBorgDefault:
      return std::make_unique<BorgDefaultPredictor>(spec.phi);
    case PredictorSpec::Type::kRcLike:
      return std::make_unique<RcLikePredictor>(spec.percentile, spec.config);
    case PredictorSpec::Type::kNSigma:
      return std::make_unique<NSigmaPredictor>(spec.n_sigma, spec.config);
    case PredictorSpec::Type::kAutopilot:
      return std::make_unique<AutopilotPredictor>(spec.percentile, spec.margin, spec.config);
    case PredictorSpec::Type::kChance:
      return std::make_unique<ChancePredictor>(spec.target, spec.config);
    case PredictorSpec::Type::kFlex:
      return std::make_unique<FlexPredictor>(spec.percentile, spec.margin, spec.config);
    case PredictorSpec::Type::kMax: {
      CRF_CHECK(!spec.components.empty()) << "max predictor needs components";
      std::vector<std::unique_ptr<PeakPredictor>> components;
      components.reserve(spec.components.size());
      for (const PredictorSpec& component : spec.components) {
        components.push_back(CreatePredictor(component));
      }
      return std::make_unique<MaxPredictor>(std::move(components));
    }
  }
  CRF_CHECK(false) << "unreachable";
  return nullptr;
}

}  // namespace crf
