#include <gtest/gtest.h>

#include <vector>

#include "crf/core/borg_default_predictor.h"
#include "crf/core/limit_sum_predictor.h"
#include "crf/core/max_predictor.h"
#include "crf/core/n_sigma_predictor.h"
#include "crf/core/predictor_factory.h"
#include "crf/core/rc_like_predictor.h"
#include "crf/util/rng.h"
#include "reference_roster.h"

namespace crf {
namespace {

PredictorConfig FastConfig(Interval warmup = 3, Interval history = 10) {
  PredictorConfig config;
  config.min_num_samples = warmup;
  config.max_num_samples = history;
  return config;
}

std::vector<TaskSample> Tasks(std::vector<std::pair<double, double>> usage_limit) {
  std::vector<TaskSample> samples;
  TaskId id = 1;
  for (const auto& [usage, limit] : usage_limit) {
    samples.push_back({id++, usage, limit});
  }
  return samples;
}

TEST(ClampPredictionTest, ClampsBothSides) {
  EXPECT_DOUBLE_EQ(ClampPrediction(5.0, 1.0, 3.0), 3.0);   // Above limit sum.
  EXPECT_DOUBLE_EQ(ClampPrediction(0.5, 1.0, 3.0), 1.0);   // Below current usage.
  EXPECT_DOUBLE_EQ(ClampPrediction(2.0, 1.0, 3.0), 2.0);   // In range.
  EXPECT_DOUBLE_EQ(ClampPrediction(9.0, 5.0, 3.0), 3.0);   // usage > limits: limit wins.
}

TEST(ClampPredictionTest, EdgeCases) {
  // Empty machine: everything is zero, prediction pinned to zero.
  EXPECT_DOUBLE_EQ(ClampPrediction(0.0, 0.0, 0.0), 0.0);
  // A negative raw prediction (possible from mean - correction style
  // estimators) clamps up to current usage.
  EXPECT_DOUBLE_EQ(ClampPrediction(-2.0, 0.0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(ClampPrediction(-2.0, 0.4, 3.0), 0.4);
  // Boundary equalities pass through untouched.
  EXPECT_DOUBLE_EQ(ClampPrediction(1.0, 1.0, 3.0), 1.0);  // raw == usage_now
  EXPECT_DOUBLE_EQ(ClampPrediction(3.0, 1.0, 3.0), 3.0);  // raw == limit_sum
  EXPECT_DOUBLE_EQ(ClampPrediction(2.0, 2.0, 2.0), 2.0);  // fully degenerate
  // Zero limits with nonzero usage (overcommitted beyond enforcement):
  // the limit cap still wins.
  EXPECT_DOUBLE_EQ(ClampPrediction(5.0, 1.0, 0.0), 0.0);
}

TEST(LimitSumPredictorTest, SumsLimits) {
  LimitSumPredictor predictor;
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.1, 0.5}, {0.2, 0.7}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 1.2);
  EXPECT_EQ(predictor.name(), "limit-sum");
}

TEST(LimitSumPredictorTest, TracksDepartures) {
  LimitSumPredictor predictor;
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.1, 0.5}, {0.2, 0.7}}));
  feed.Observe(1, Tasks({{0.1, 0.5}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.5);
}

TEST(LimitSumPredictorTest, EmptyMachinePredictsZero) {
  LimitSumPredictor predictor;
  IdKeyedFeed feed(predictor);
  feed.Observe(0, {});
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);
}

TEST(BorgDefaultPredictorTest, ScalesLimitSum) {
  BorgDefaultPredictor predictor(0.9);
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.1, 1.0}, {0.1, 1.0}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 1.8);
  EXPECT_EQ(predictor.name(), "borg-default-0.90");
}

TEST(BorgDefaultPredictorTest, NeverBelowCurrentUsage) {
  BorgDefaultPredictor predictor(0.5);
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.9, 1.0}}));
  // 0.5 * 1.0 = 0.5 < current usage 0.9; clamped up.
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.9);
}

TEST(BorgDefaultPredictorTest, PhiOneIsNoOvercommit) {
  BorgDefaultPredictor predictor(1.0);
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.2, 0.6}, {0.1, 0.4}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 1.0);
}

TEST(BorgDefaultPredictorDeathTest, RejectsInvalidPhi) {
  EXPECT_DEATH(BorgDefaultPredictor(0.0), "CHECK failed");
  EXPECT_DEATH(BorgDefaultPredictor(1.5), "CHECK failed");
}

TEST(RcLikePredictorTest, WarmupUsesLimit) {
  RcLikePredictor predictor(95.0, FastConfig(/*warmup=*/3));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.1, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.8);
  feed.Observe(1, Tasks({{0.1, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.8);
  // Third sample completes the warm-up: prediction becomes the percentile of
  // the constant stream.
  feed.Observe(2, Tasks({{0.1, 0.8}}));
  EXPECT_NEAR(predictor.PredictPeak(), 0.1, 1e-6);
}

TEST(RcLikePredictorTest, PercentileOverWindow) {
  RcLikePredictor predictor(50.0, FastConfig(/*warmup=*/1, /*history=*/100));
  IdKeyedFeed feed(predictor);
  // Descending so the clamp to current usage (the final 0) does not mask the
  // percentile.
  for (Interval t = 0; t < 5; ++t) {
    feed.Observe(t, Tasks({{static_cast<double>(4 - t), 10.0}}));
  }
  // Median of {4,3,2,1,0} is 2.
  EXPECT_NEAR(predictor.PredictPeak(), 2.0, 1e-9);
}

TEST(RcLikePredictorTest, DepartedTaskStateDropped) {
  RcLikePredictor predictor(99.0, FastConfig(/*warmup=*/1));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.5, 1.0}, {0.3, 1.0}}));
  feed.Observe(1, {});  // Both departed.
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);
  // Re-arrival of the same id starts a fresh warm-up (limit-based).
  RcLikePredictor fresh(99.0, FastConfig(/*warmup=*/2));
  IdKeyedFeed fresh_feed(fresh);
  fresh_feed.Observe(0, Tasks({{0.5, 1.0}}));
  fresh_feed.Observe(1, {});
  fresh_feed.Observe(2, Tasks({{0.5, 1.0}}));
  EXPECT_DOUBLE_EQ(fresh.PredictPeak(), 1.0);  // Warming up again.
}

TEST(RcLikePredictorTest, HigherPercentilePredictsHigher) {
  RcLikePredictor p50(50.0, FastConfig(/*warmup=*/1, /*history=*/50));
  IdKeyedFeed p50_feed(p50);
  RcLikePredictor p99(99.0, FastConfig(/*warmup=*/1, /*history=*/50));
  IdKeyedFeed p99_feed(p99);
  Rng rng(80);
  for (Interval t = 0; t < 50; ++t) {
    const auto tasks = Tasks({{rng.UniformDouble(), 2.0}});
    p50_feed.Observe(t, tasks);
    p99_feed.Observe(t, tasks);
  }
  EXPECT_LT(p50.PredictPeak(), p99.PredictPeak());
}

TEST(RcLikePredictorTest, NameIncludesPercentile) {
  RcLikePredictor predictor(95.0, FastConfig());
  EXPECT_EQ(predictor.name(), "rc-like-p95");
}

TEST(NSigmaPredictorTest, ConstantUsageConverges) {
  NSigmaPredictor predictor(5.0, FastConfig(/*warmup=*/2, /*history=*/20));
  IdKeyedFeed feed(predictor);
  for (Interval t = 0; t < 30; ++t) {
    feed.Observe(t, Tasks({{0.4, 1.0}}));
  }
  // Zero variance: prediction = mean = 0.4.
  EXPECT_NEAR(predictor.PredictPeak(), 0.4, 1e-9);
}

TEST(NSigmaPredictorTest, WarmingTasksContributeLimit) {
  NSigmaPredictor predictor(3.0, FastConfig(/*warmup=*/5, /*history=*/20));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.1, 0.7}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.7);
}

TEST(NSigmaPredictorTest, HigherNPredictsHigher) {
  Rng rng(81);
  NSigmaPredictor n2(2.0, FastConfig(/*warmup=*/1, /*history=*/50));
  IdKeyedFeed n2_feed(n2);
  NSigmaPredictor n10(10.0, FastConfig(/*warmup=*/1, /*history=*/50));
  IdKeyedFeed n10_feed(n10);
  for (Interval t = 0; t < 60; ++t) {
    const auto tasks = Tasks({{0.3 + 0.1 * rng.Normal(), 5.0}});
    n2_feed.Observe(t, tasks);
    n10_feed.Observe(t, tasks);
  }
  EXPECT_LT(n2.PredictPeak(), n10.PredictPeak());
}

TEST(NSigmaPredictorTest, ClampedToLimitSum) {
  NSigmaPredictor predictor(10.0, FastConfig(/*warmup=*/1, /*history=*/10));
  IdKeyedFeed feed(predictor);
  Rng rng(82);
  for (Interval t = 0; t < 20; ++t) {
    feed.Observe(t, Tasks({{rng.UniformDouble() * 0.5, 0.5}}));
  }
  EXPECT_LE(predictor.PredictPeak(), 0.5 + 1e-12);
}

TEST(NSigmaPredictorTest, Name) {
  NSigmaPredictor predictor(5.0, FastConfig());
  EXPECT_EQ(predictor.name(), "n-sigma-5");
}

// The warm-up boundary is exact: with min_num_samples = 3, a task still
// contributes its limit after 2 samples and switches to usage-driven on the
// observation where its 3rd sample lands.
TEST(NSigmaPredictorTest, WarmupBoundaryIsExact) {
  NSigmaPredictor predictor(5.0, FastConfig(/*warmup=*/3, /*history=*/10));
  IdKeyedFeed feed(predictor);
  // Constant zero usage makes the warmed prediction exactly 0, so the
  // limit-vs-usage switch is unmistakable.
  feed.Observe(0, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.8);  // 1 sample: warming.
  feed.Observe(1, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.8);  // min_num_samples - 1: warming.
  feed.Observe(2, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);  // min_num_samples: warmed.
}

TEST(RcLikePredictorTest, WarmupBoundaryIsExact) {
  RcLikePredictor predictor(99.0, FastConfig(/*warmup=*/3, /*history=*/10));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.8);
  feed.Observe(1, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.8);
  feed.Observe(2, Tasks({{0.0, 0.8}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);
}

// Per the Observe contract, a machine whose tasks all depart must release
// its per-task state: the same task id re-arriving starts a fresh warm-up
// instead of inheriting the old sample count.
TEST(NSigmaPredictorTest, AllTasksDepartReleasesState) {
  NSigmaPredictor predictor(5.0, FastConfig(/*warmup=*/2, /*history=*/10));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.0, 0.6}}));
  feed.Observe(1, Tasks({{0.0, 0.6}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);  // Warmed.
  feed.Observe(2, {});  // Machine empties.
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);
  // Same id returns: warm-up restarts from zero samples.
  feed.Observe(3, Tasks({{0.0, 0.6}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.6);
  feed.Observe(4, Tasks({{0.0, 0.6}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 0.0);  // Warmed again.
}

// Reset() must behave exactly like a freshly constructed instance with the
// same configuration — the contract the simulator's predictor pool relies on.
TEST(PredictorResetTest, ResetEqualsFreshInstance) {
  Rng rng(83);
  const std::vector<PredictorSpec> specs = {
      LimitSumSpec(), BorgDefaultSpec(0.8), NSigmaSpec(4.0, 2, 8), RcLikeSpec(95.0, 2, 8),
      AutopilotSpec(98.0, 1.1, 2, 8), MaxSpec({NSigmaSpec(3.0, 2, 8), RcLikeSpec(90.0, 2, 8)})};
  for (const PredictorSpec& spec : specs) {
    SCOPED_TRACE(spec.Name());
    auto pooled = CreatePredictor(spec);
    // Pollute with one machine's history, then Reset.
    IdKeyedFeed polluting_feed(*pooled);
    for (Interval t = 0; t < 12; ++t) {
      polluting_feed.Observe(t, Tasks({{rng.UniformDouble(), 1.0}, {rng.UniformDouble(), 0.5}}));
    }
    pooled->Reset();

    auto fresh = CreatePredictor(spec);
    IdKeyedFeed pooled_feed(*pooled);
    IdKeyedFeed fresh_feed(*fresh);
    Rng replay(84);
    for (Interval t = 0; t < 12; ++t) {
      const double u1 = replay.UniformDouble();
      const double u2 = replay.UniformDouble();
      const auto tasks = Tasks({{u1, 0.9}, {u2, 0.7}});
      pooled_feed.Observe(t, tasks);
      fresh_feed.Observe(t, tasks);
      EXPECT_DOUBLE_EQ(pooled->PredictPeak(), fresh->PredictPeak()) << "t=" << t;
    }
  }
}

// One tick of a hand-built roster with its explicit RosterDelta.
struct RosterTick {
  std::vector<TaskSample> tasks;
  std::vector<int32_t> departed;
  int32_t arrived = 0;
};

std::vector<double> DrivePredictions(const PredictorSpec& spec,
                                     const std::vector<RosterTick>& ticks) {
  auto predictor = CreatePredictor(spec);
  std::vector<double> predictions;
  for (size_t t = 0; t < ticks.size(); ++t) {
    predictor->Observe(static_cast<Interval>(t), ticks[t].tasks,
                       RosterDelta{ticks[t].departed, ticks[t].arrived});
    predictions.push_back(predictor->PredictPeak());
  }
  return predictions;
}

// The per-task families, warming up after 3 samples.
std::vector<PredictorSpec> PerTaskFamilies() {
  return {RcLikeSpec(99.0, 3, 10), NSigmaSpec(3.0, 3, 10), ChanceSpec(0.05, 3, 10),
          AutopilotSpec(98.0, 1.1, 3, 10)};
}

// A task's identity is its roster position, not its id: two resident tasks
// that share an id (the CSV loader can produce them) keep separate state
// across a churn tick, exactly as if their ids differed.
TEST(PositionalIdentityTest, SharedTaskIdKeepsSeparateStateAcrossChurn) {
  // Ticks 0-1: a filler task and A. Tick 2: B arrives. Tick 3: the filler
  // departs and a new task arrives. A is warm by then and B is not.
  const auto scenario = [](TaskId b_id) {
    std::vector<RosterTick> ticks;
    for (int t = 0; t < 6; ++t) {
      const double a = 0.10 + 0.01 * t;
      const double b = 0.60 - 0.02 * t;
      RosterTick tick;
      if (t < 2) {
        tick.tasks = {{1, 0.2, 0.5}, {7, a, 1.0}};
        tick.arrived = t == 0 ? 2 : 0;
      } else if (t == 2) {
        tick.tasks = {{1, 0.2, 0.5}, {7, a, 1.0}, {b_id, b, 1.0}};
        tick.arrived = 1;
      } else {
        tick.tasks = {{7, a, 1.0}, {b_id, b, 1.0}, {9, 0.2, 0.5}};
        if (t == 3) {
          tick.departed = {0};
          tick.arrived = 1;
        }
      }
      ticks.push_back(tick);
    }
    return ticks;
  };
  for (const PredictorSpec& spec : PerTaskFamilies()) {
    SCOPED_TRACE(spec.Name());
    EXPECT_EQ(DrivePredictions(spec, scenario(/*b_id=*/7)),
              DrivePredictions(spec, scenario(/*b_id=*/70)));
  }
}

// A task id that departs and re-arrives in one tick is a new task: its
// warm-up restarts, exactly as if it had arrived under a fresh id.
TEST(PositionalIdentityTest, SameTickReArrivalRestartsWarmUp) {
  // Ticks 0-3: A (id 1, low usage, limit 0.9) and B. Tick 4: A departs and
  // re-arrives, so the roster becomes [B, A].
  const auto scenario = [](TaskId rearrival_id) {
    std::vector<RosterTick> ticks;
    for (int t = 0; t < 7; ++t) {
      const double a = 0.10 + 0.01 * t;
      RosterTick tick;
      if (t < 4) {
        tick.tasks = {{1, a, 0.9}, {2, 0.2, 0.3}};
        tick.arrived = t == 0 ? 2 : 0;
      } else {
        tick.tasks = {{2, 0.2, 0.3}, {rearrival_id, a, 0.9}};
        if (t == 4) {
          tick.departed = {0};
          tick.arrived = 1;
        }
      }
      ticks.push_back(tick);
    }
    return ticks;
  };
  for (const PredictorSpec& spec : PerTaskFamilies()) {
    SCOPED_TRACE(spec.Name());
    const std::vector<double> rearrived = DrivePredictions(spec, scenario(/*rearrival_id=*/1));
    EXPECT_EQ(rearrived, DrivePredictions(spec, scenario(/*rearrival_id=*/3)));
    // Warming again, A is represented by its limit.
    EXPECT_GE(rearrived[4], 0.9);
    EXPECT_LT(rearrived[3], 0.9);
  }
}

TEST(MaxPredictorTest, TakesPointwiseMax) {
  std::vector<std::unique_ptr<PeakPredictor>> components;
  components.push_back(std::make_unique<BorgDefaultPredictor>(0.5));
  components.push_back(std::make_unique<LimitSumPredictor>());
  MaxPredictor predictor(std::move(components));
  IdKeyedFeed feed(predictor);
  feed.Observe(0, Tasks({{0.1, 1.0}}));
  EXPECT_DOUBLE_EQ(predictor.PredictPeak(), 1.0);  // limit-sum dominates.
  EXPECT_EQ(predictor.name(), "max(borg-default-0.50,limit-sum)");
}

TEST(MaxPredictorTest, AtLeastEachComponent) {
  Rng rng(83);
  auto make = [] {
    std::vector<std::unique_ptr<PeakPredictor>> components;
    components.push_back(
        std::make_unique<NSigmaPredictor>(3.0, FastConfig(/*warmup=*/2, /*history=*/20)));
    components.push_back(
        std::make_unique<RcLikePredictor>(90.0, FastConfig(/*warmup=*/2, /*history=*/20)));
    return std::make_unique<MaxPredictor>(std::move(components));
  };
  auto max_predictor = make();
  IdKeyedFeed max_feed(*max_predictor);
  NSigmaPredictor n_sigma(3.0, FastConfig(2, 20));
  IdKeyedFeed n_sigma_feed(n_sigma);
  RcLikePredictor rc(90.0, FastConfig(2, 20));
  IdKeyedFeed rc_feed(rc);
  for (Interval t = 0; t < 40; ++t) {
    const auto tasks =
        Tasks({{rng.UniformDouble() * 0.5, 0.8}, {rng.UniformDouble() * 0.3, 0.4}});
    max_feed.Observe(t, tasks);
    n_sigma_feed.Observe(t, tasks);
    rc_feed.Observe(t, tasks);
    EXPECT_GE(max_predictor->PredictPeak(), n_sigma.PredictPeak() - 1e-12);
    EXPECT_GE(max_predictor->PredictPeak(), rc.PredictPeak() - 1e-12);
  }
}

TEST(MaxPredictorDeathTest, RequiresComponents) {
  EXPECT_DEATH(MaxPredictor({}), "CHECK failed");
}

}  // namespace
}  // namespace crf
