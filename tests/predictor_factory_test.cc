#include "crf/core/predictor_factory.h"

#include <gtest/gtest.h>

namespace crf {
namespace {

TEST(PredictorFactoryTest, CreatesEachType) {
  EXPECT_EQ(CreatePredictor(LimitSumSpec())->name(), "limit-sum");
  EXPECT_EQ(CreatePredictor(BorgDefaultSpec(0.85))->name(), "borg-default-0.85");
  EXPECT_EQ(CreatePredictor(RcLikeSpec(95.0))->name(), "rc-like-p95");
  EXPECT_EQ(CreatePredictor(NSigmaSpec(3.0))->name(), "n-sigma-3");
}

TEST(PredictorFactoryTest, MaxComposition) {
  const PredictorSpec spec = MaxSpec({NSigmaSpec(5.0), RcLikeSpec(99.0)});
  EXPECT_EQ(CreatePredictor(spec)->name(), "max(n-sigma-5,rc-like-p99)");
}

TEST(PredictorFactoryTest, SpecNameMatchesInstance) {
  for (const PredictorSpec& spec :
       {LimitSumSpec(), BorgDefaultSpec(), RcLikeSpec(), NSigmaSpec(), SimulationMaxSpec(),
        ProductionMaxSpec()}) {
    EXPECT_EQ(spec.Name(), CreatePredictor(spec)->name());
  }
}

TEST(PredictorFactoryTest, PaperConfigurations) {
  // Section 5.4: max(n-sigma(5), rc-like(p99)).
  EXPECT_EQ(SimulationMaxSpec().Name(), "max(n-sigma-5,rc-like-p99)");
  // Section 6.1: max(n-sigma(3), rc-like(p80)).
  EXPECT_EQ(ProductionMaxSpec().Name(), "max(n-sigma-3,rc-like-p80)");
}

TEST(PredictorFactoryTest, ConfigPlumbing) {
  const PredictorSpec spec = RcLikeSpec(90.0, 7, 33);
  EXPECT_EQ(spec.config.min_num_samples, 7);
  EXPECT_EQ(spec.config.max_num_samples, 33);
  // Defaults follow the paper: 2h warm-up, 10h history.
  const PredictorSpec defaults = NSigmaSpec();
  EXPECT_EQ(defaults.config.min_num_samples, 2 * kIntervalsPerHour);
  EXPECT_EQ(defaults.config.max_num_samples, 10 * kIntervalsPerHour);
}

TEST(PredictorFactoryTest, FreshInstancesAreIndependent) {
  const PredictorSpec spec = NSigmaSpec(5.0, 1, 10);
  auto a = CreatePredictor(spec);
  auto b = CreatePredictor(spec);
  std::vector<TaskSample> tasks{{1, 0.5, 1.0}};
  a->Observe(0, tasks, RosterDelta{.arrived = 1});
  // b saw nothing; its prediction must be unaffected by a's state.
  EXPECT_DOUBLE_EQ(b->PredictPeak(), 0.0);
  EXPECT_GT(a->PredictPeak(), 0.0);
}

TEST(PredictorFactoryDeathTest, MaxWithoutComponentsAborts) {
  PredictorSpec spec;
  spec.type = PredictorSpec::Type::kMax;
  EXPECT_DEATH(CreatePredictor(spec), "max predictor needs components");
}

}  // namespace
}  // namespace crf
