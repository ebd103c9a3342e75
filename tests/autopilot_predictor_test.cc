#include "crf/core/autopilot_predictor.h"

#include <gtest/gtest.h>

#include "crf/core/predictor_factory.h"
#include "crf/core/rc_like_predictor.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/util/rng.h"
#include "reference_roster.h"

namespace crf {
namespace {

PredictorConfig FastConfig(Interval warmup = 2, Interval history = 50) {
  PredictorConfig config;
  config.min_num_samples = warmup;
  config.max_num_samples = history;
  return config;
}

std::vector<TaskSample> OneTask(double usage, double limit) {
  return {{1, usage, limit}};
}

TEST(AutopilotPredictorTest, WarmupUsesLimit) {
  AutopilotPredictor predictor(98.0, 1.1, FastConfig(/*warmup=*/3));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, OneTask(0.1, 0.9));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.9);
}

TEST(AutopilotPredictorTest, AppliesMarginToPercentile) {
  AutopilotPredictor predictor(100.0, 1.2, FastConfig(/*warmup=*/1));
  IdKeyedFeed feed(predictor);
  // Descending stream so the current-usage clamp does not mask the estimate.
  feed.Observe(0, OneTask(0.5, 2.0));
  feed.Observe(1, OneTask(0.3, 2.0));
  // p100 of {0.5, 0.3} = 0.5; with margin 1.2 -> 0.6, below the limit 2.0.
  EXPECT_NEAR(predictor.PredictPeak(), 0.6, 1e-6);
}

TEST(AutopilotPredictorTest, NeverExceedsConfiguredLimit) {
  AutopilotPredictor predictor(100.0, 2.0, FastConfig(/*warmup=*/1));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, OneTask(0.55, 0.6));
  feed.Observe(1, OneTask(0.40, 0.6));
  // margin * p100 = 1.1 would exceed the limit; capped per task at 0.6.
  EXPECT_LE(predictor.PredictPeak(), 0.6 + 1e-12);
}

TEST(AutopilotPredictorTest, DropsDepartedTasks) {
  AutopilotPredictor predictor(98.0, 1.1, FastConfig(/*warmup=*/1));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, OneTask(0.5, 1.0));
  feed.Observe(1, {});
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);
}

TEST(AutopilotPredictorTest, Name) {
  AutopilotPredictor predictor(98.0, 1.1, FastConfig());
  EXPECT_EQ(predictor.name(), "autopilot-p98-m1.10");
  EXPECT_EQ(AutopilotSpec().Name(), "autopilot-p98-m1.10");
}

TEST(AutopilotPredictorDeathTest, RejectsMarginBelowOne) {
  EXPECT_DEATH(AutopilotPredictor(98.0, 0.9, FastConfig()), "CHECK failed");
}

TEST(AutopilotPredictorTest, PredictsAboveRcLikeSamePercentile) {
  // margin >= 1 and the per-task cap only binds when RC-like would also be
  // near the limit, so autopilot >= rc-like at the same percentile.
  AutopilotPredictor autopilot(95.0, 1.15, FastConfig(/*warmup=*/1));
  IdKeyedFeed autopilot_feed(autopilot);
  RcLikePredictor rc(95.0, FastConfig(/*warmup=*/1));
  IdKeyedFeed rc_feed(rc);
  Rng rng(5);
  for (Interval t = 0; t < 100; ++t) {
    const auto tasks = OneTask(0.4 * rng.UniformDouble(), 1.0);
    autopilot_feed.Observe(t, tasks);
    rc_feed.Observe(t, tasks);
    EXPECT_GE(autopilot.PredictPeak(), rc.PredictPeak() - 1e-12);
  }
}

TEST(AutopilotPredictorTest, LeavesPoolingGapOnTheTable) {
  // The paper's Section 2.2 claim: per-task limit tuning saves less than
  // machine-level peak prediction. On a realistic cell, autopilot's savings
  // sit well below RC-like's at a similar percentile.
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 12;
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay;
  CellTrace cell = GenerateCellTrace(profile, options, Rng(77));
  cell.FilterToServingTasks();

  const SimResult autopilot = SimulateCell(cell, AutopilotSpec(98.0, 1.10));
  const SimResult rc = SimulateCell(cell, RcLikeSpec(98.0));
  EXPECT_LT(autopilot.MeanCellSavings(), rc.MeanCellSavings());
  // And, being more conservative, it violates no more often.
  EXPECT_LE(autopilot.MeanViolationRate(), rc.MeanViolationRate() + 1e-9);
}

}  // namespace
}  // namespace crf
