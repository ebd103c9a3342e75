#include "crf/trace/workload_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "crf/stats/running_stats.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

std::array<double, kSubSamplesPerInterval> StepOnce(TaskUsageModel& model,
                                                    double shared_load = 1.0) {
  std::array<double, kSubSamplesPerInterval> sub;
  model.Step(sub, shared_load);
  return sub;
}

TEST(TaskUsageModelTest, SamplesWithinBounds) {
  TaskUsageParams params;
  params.limit = 0.8;
  TaskUsageModel model(params, 0, Rng(1));
  for (int t = 0; t < 500; ++t) {
    for (const double s : StepOnce(model)) {
      ASSERT_GE(s, 0.0);
      ASSERT_LE(s, params.limit);
    }
  }
}

TEST(TaskUsageModelTest, DeterministicGivenSameRng) {
  TaskUsageParams params;
  TaskUsageModel a(params, 5, Rng(7));
  TaskUsageModel b(params, 5, Rng(7));
  for (int t = 0; t < 50; ++t) {
    EXPECT_EQ(StepOnce(a), StepOnce(b));
  }
}

TEST(TaskUsageModelTest, MeanTracksMeanRatio) {
  TaskUsageParams params;
  params.limit = 1.0;
  params.mean_ratio = 0.4;
  params.diurnal_amplitude = 0.0;
  params.spike_prob = 0.0;
  params.ar_sigma = 0.05;
  RunningStats stats;
  TaskUsageModel model(params, 0, Rng(11));
  for (int t = 0; t < 4000; ++t) {
    for (const double s : StepOnce(model)) {
      stats.Add(s);
    }
  }
  EXPECT_NEAR(stats.mean(), 0.4, 0.03);
}

TEST(TaskUsageModelTest, DiurnalWaveMovesUsage) {
  TaskUsageParams params;
  params.mean_ratio = 0.5;
  params.diurnal_amplitude = 0.4;
  params.phase_days = 0.0;
  params.ar_sigma = 0.01;
  params.spike_prob = 0.0;
  TaskUsageModel model(params, 0, Rng(13));
  RunningStats crest;   // Around t = day/4 (sine peak).
  RunningStats trough;  // Around t = 3*day/4.
  for (Interval t = 0; t < 2 * kIntervalsPerDay; ++t) {
    const auto sub = StepOnce(model);
    double mean = 0.0;
    for (const double s : sub) {
      mean += s;
    }
    mean /= sub.size();
    const Interval day_pos = t % kIntervalsPerDay;
    if (std::abs(day_pos - kIntervalsPerDay / 4) < 12) {
      crest.Add(mean);
    }
    if (std::abs(day_pos - 3 * kIntervalsPerDay / 4) < 12) {
      trough.Add(mean);
    }
  }
  EXPECT_GT(crest.mean(), trough.mean() + 0.2);
}

TEST(TaskUsageModelTest, SpikesReachSpikeLevel) {
  TaskUsageParams params;
  params.mean_ratio = 0.2;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.02;
  params.spike_prob = 0.05;
  params.spike_level = 0.9;
  params.spike_duration = 2;
  TaskUsageModel model(params, 0, Rng(17));
  int high_intervals = 0;
  for (int t = 0; t < 2000; ++t) {
    const auto sub = StepOnce(model);
    double mean = 0.0;
    for (const double s : sub) {
      mean += s;
    }
    if (mean / sub.size() > 0.7) {
      ++high_intervals;
    }
  }
  // spike_prob 0.05 with duration 2 => roughly 10% of intervals spiking.
  EXPECT_GT(high_intervals, 50);
}

TEST(TaskUsageModelTest, NoSpikesWhenDisabled) {
  TaskUsageParams params;
  params.mean_ratio = 0.2;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.02;
  params.spike_prob = 0.0;
  TaskUsageModel model(params, 0, Rng(19));
  for (int t = 0; t < 2000; ++t) {
    for (const double s : StepOnce(model)) {
      ASSERT_LT(s, 0.6);
    }
  }
}

TEST(TaskUsageModelTest, SharedLoadScalesCoupledTasks) {
  TaskUsageParams params;
  params.mean_ratio = 0.4;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.01;
  params.spike_prob = 0.0;
  params.load_coupling = 1.0;
  TaskUsageModel low(params, 0, Rng(23));
  TaskUsageModel high(params, 0, Rng(23));
  RunningStats low_stats;
  RunningStats high_stats;
  for (int t = 0; t < 500; ++t) {
    for (const double s : StepOnce(low, 0.7)) {
      low_stats.Add(s);
    }
    for (const double s : StepOnce(high, 1.3)) {
      high_stats.Add(s);
    }
  }
  EXPECT_NEAR(high_stats.mean() / low_stats.mean(), 1.3 / 0.7, 0.1);
}

TEST(TaskUsageModelTest, UncoupledTasksIgnoreSharedLoad) {
  TaskUsageParams params;
  params.mean_ratio = 0.4;
  params.diurnal_amplitude = 0.0;
  params.ar_sigma = 0.01;
  params.spike_prob = 0.0;
  params.load_coupling = 0.0;
  TaskUsageModel a(params, 0, Rng(29));
  TaskUsageModel b(params, 0, Rng(29));
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(StepOnce(a, 0.5), StepOnce(b, 2.0));
  }
}

TEST(SummarizeIntervalTest, PercentileLadderIsOrdered) {
  Rng rng(31);
  for (int round = 0; round < 50; ++round) {
    std::array<double, kSubSamplesPerInterval> sub;
    for (auto& s : sub) {
      s = rng.UniformDouble();
    }
    const IntervalSummary summary = SummarizeInterval(sub);
    EXPECT_LE(summary.rich.p50, summary.rich.p60);
    EXPECT_LE(summary.rich.p60, summary.rich.p70);
    EXPECT_LE(summary.rich.p70, summary.rich.p80);
    EXPECT_LE(summary.rich.p80, summary.rich.p90);
    EXPECT_LE(summary.rich.p90, summary.rich.p95);
    EXPECT_LE(summary.rich.p95, summary.rich.p99);
    EXPECT_LE(summary.rich.p99, summary.rich.max);
    EXPECT_EQ(summary.scalar_p90, summary.rich.p90);
    EXPECT_LE(summary.rich.avg, summary.rich.max);
  }
}

TEST(SummarizeIntervalTest, ConstantSamples) {
  std::array<double, kSubSamplesPerInterval> sub;
  sub.fill(0.25);
  const IntervalSummary summary = SummarizeInterval(sub);
  EXPECT_FLOAT_EQ(summary.rich.p50, 0.25f);
  EXPECT_FLOAT_EQ(summary.rich.max, 0.25f);
  EXPECT_FLOAT_EQ(summary.rich.avg, 0.25f);
  EXPECT_FLOAT_EQ(summary.scalar_p90, 0.25f);
}

// FNV-1a over the bytes of 10k intervals of Step output. The synthesizer
// calls no libm function (its exp, sine and normals come from
// crf/util/portable_math, compiled without FMA contraction), so these
// digests are the same on every IEEE-754 host; a change here is a change of
// the usage stream, and every generated trace moves with it.
uint64_t StepDigest(const TaskUsageParams& params, uint64_t seed) {
  TaskUsageModel model(params, 37, Rng(seed));
  uint64_t hash = 0xcbf29ce484222325ULL;
  std::array<double, kSubSamplesPerInterval> sub;
  for (int t = 0; t < 10000; ++t) {
    const double shared_load = 0.8 + 0.05 * (t % 9);
    model.Step(sub, shared_load);
    for (const double v : sub) {
      const uint64_t bits = std::bit_cast<uint64_t>(v);
      for (int byte = 0; byte < 8; ++byte) {
        hash = (hash ^ ((bits >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

TEST(TaskUsageModelTest, StreamDigestsArePinned) {
  TaskUsageParams flat;
  flat.limit = 0.3;
  flat.mean_ratio = 0.45;
  flat.diurnal_amplitude = 0.0;
  flat.spike_prob = 0.0;

  TaskUsageParams diurnal_coupled;
  diurnal_coupled.limit = 0.125;
  diurnal_coupled.mean_ratio = 0.35;
  diurnal_coupled.diurnal_amplitude = 0.4;
  diurnal_coupled.phase_days = 0.3;
  diurnal_coupled.load_coupling = 0.8;
  diurnal_coupled.spike_prob = 0.0;

  TaskUsageParams spiky;
  spiky.limit = 0.5;
  spiky.mean_ratio = 0.2;
  spiky.ar_sigma = 0.1;
  spiky.spike_prob = 0.05;
  spiky.spike_level = 0.9;
  spiky.spike_duration = 3;
  spiky.within_sigma = 0.25;

  EXPECT_EQ(StepDigest(flat, 1), 0xdbe3c21a8a31f6b6ULL);
  EXPECT_EQ(StepDigest(diurnal_coupled, 2), 0x5014a47c66680c53ULL);
  EXPECT_EQ(StepDigest(spiky, 3), 0x62d0b62e76d0c588ULL);
}

void ExpectP90MatchesLadder(std::span<const double> sub) {
  const float p90 = IntervalP90(sub);
  const float ladder = SummarizeInterval(sub).scalar_p90;
  ASSERT_EQ(std::bit_cast<uint32_t>(p90), std::bit_cast<uint32_t>(ladder));
}

TEST(IntervalP90Test, BitwiseEqualToSortedLadderOnRandomInputs) {
  Rng rng(37);
  std::array<double, kSubSamplesPerInterval> sub;
  for (int round = 0; round < 100000; ++round) {
    const double scale = rng.Uniform(0.01, 4.0);
    for (auto& s : sub) {
      s = scale * rng.UniformDouble();
    }
    ExpectP90MatchesLadder(sub);
  }
}

TEST(IntervalP90Test, BitwiseEqualToSortedLadderOnTies) {
  Rng rng(41);
  std::array<double, kSubSamplesPerInterval> sub;
  const double limit = 0.75;
  // Values clamped to 0 and to the limit, as TaskUsageModel::Step clamps
  // them, so the top three often tie with each other or with the rest.
  for (int round = 0; round < 20000; ++round) {
    for (auto& s : sub) {
      s = std::clamp(rng.Uniform(-0.5, 1.5) * limit, 0.0, limit);
    }
    ExpectP90MatchesLadder(sub);
  }
  // A few distinct values repeated in every arrangement the draw gives.
  for (int round = 0; round < 20000; ++round) {
    for (auto& s : sub) {
      s = static_cast<double>(rng.UniformInt(3)) * 0.25;
    }
    ExpectP90MatchesLadder(sub);
  }
  sub.fill(0.0);
  ExpectP90MatchesLadder(sub);
  sub.fill(limit);
  ExpectP90MatchesLadder(sub);
  sub.fill(0.3);
  ExpectP90MatchesLadder(sub);
  EXPECT_EQ(IntervalP90(sub), 0.3f);
}

}  // namespace
}  // namespace crf
