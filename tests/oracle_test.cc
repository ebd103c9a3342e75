#include "crf/core/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "crf/stats/window_max.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

struct TaskSpec {
  TaskId id;
  Interval start;
  std::vector<float> usage;
  double limit = 1.0;
};

TaskSpec MakeTask(TaskId id, Interval start, std::vector<float> usage, double limit = 1.0) {
  return {id, start, std::move(usage), limit};
}

CellTrace OneMachineCell(std::vector<TaskSpec> tasks, Interval num_intervals) {
  CellTraceBuilder builder("oracle_test", num_intervals, /*num_machines=*/1);
  for (const TaskSpec& spec : tasks) {
    const int32_t index = builder.AddTask(spec.id, spec.id, /*machine=*/0, spec.start,
                                          spec.limit, SchedulingClass::kLatencySensitive);
    for (const float u : spec.usage) {
      builder.AppendUsage(index, u);
    }
  }
  return builder.Seal();
}

// Direct O(T * H * N) reference implementation of the arrival-filtered
// oracle definition from Section 3.1.
std::vector<double> BruteForceOracle(const CellTrace& cell, int machine, Interval horizon) {
  std::vector<double> oracle(cell.num_intervals, 0.0);
  for (Interval tau = 0; tau < cell.num_intervals; ++tau) {
    double best = 0.0;
    const Interval end = std::min<Interval>(cell.num_intervals, tau + horizon);
    for (Interval t = tau; t < end; ++t) {
      double total = 0.0;
      for (const int32_t index : cell.machine_tasks(machine)) {
        const TaskView task = cell.task(index);
        if (task.start() <= tau) {  // Arrival-filtered: present at tau.
          total += task.UsageAt(t);
        }
      }
      best = std::max(best, total);
    }
    oracle[tau] = best;
  }
  return oracle;
}

TEST(OracleTest, SingleTaskIsItsForwardMax) {
  CellTrace cell = OneMachineCell({MakeTask(1, 0, {0.1f, 0.5f, 0.2f, 0.4f})}, 4);
  const std::vector<double> oracle = ComputePeakOracle(cell, 0, 2);
  EXPECT_FLOAT_EQ(oracle[0], 0.5f);
  EXPECT_FLOAT_EQ(oracle[1], 0.5f);
  EXPECT_FLOAT_EQ(oracle[2], 0.4f);
  EXPECT_FLOAT_EQ(oracle[3], 0.4f);
}

TEST(OracleTest, LateArrivalExcludedUntilPresent) {
  // Task 2 arrives at t=2 with huge usage; before t=2 the oracle must not
  // see it even though it lies inside the horizon window.
  CellTrace cell = OneMachineCell(
      {MakeTask(1, 0, {0.1f, 0.1f, 0.1f, 0.1f}), MakeTask(2, 2, {0.9f, 0.9f})}, 4);
  const std::vector<double> oracle = ComputePeakOracle(cell, 0, 4);
  EXPECT_NEAR(oracle[0], 0.1, 1e-6);
  EXPECT_NEAR(oracle[1], 0.1, 1e-6);
  EXPECT_NEAR(oracle[2], 1.0, 1e-6);
  EXPECT_NEAR(oracle[3], 1.0, 1e-6);
}

TEST(OracleTest, DepartedTasksContributeZero) {
  CellTrace cell = OneMachineCell({MakeTask(1, 0, {0.8f}), MakeTask(2, 0, {0.2f, 0.2f})}, 3);
  const std::vector<double> oracle = ComputePeakOracle(cell, 0, 3);
  EXPECT_NEAR(oracle[0], 1.0, 1e-6);  // Both resident at t=0.
  EXPECT_NEAR(oracle[1], 0.2, 1e-6);  // Task 1 completed.
  EXPECT_NEAR(oracle[2], 0.0, 1e-6);  // Machine empty.
}

TEST(OracleTest, TotalUsageOracleSeesFutureArrivals) {
  CellTrace cell = OneMachineCell(
      {MakeTask(1, 0, {0.1f, 0.1f, 0.1f, 0.1f}), MakeTask(2, 2, {0.9f, 0.9f})}, 4);
  const std::vector<double> unfiltered = ComputeTotalUsageOracle(cell, 0, 4);
  EXPECT_NEAR(unfiltered[0], 1.0, 1e-6);  // Includes the future arrival.
}

TEST(OracleTest, EmptyMachineIsZero) {
  CellTraceBuilder builder("empty", /*num_intervals=*/5, /*num_machines=*/1);
  const CellTrace cell = builder.Seal();
  const std::vector<double> oracle = ComputePeakOracle(cell, 0, 3);
  for (const double v : oracle) {
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
}

struct OracleCase {
  uint64_t seed;
  Interval horizon;
};

class OraclePropertyTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OraclePropertyTest, MatchesBruteForceOnRandomTraces) {
  const OracleCase param = GetParam();
  Rng rng(param.seed);
  const Interval num_intervals = 60;
  std::vector<TaskSpec> tasks;
  const int num_tasks = 3 + static_cast<int>(rng.UniformInt(12));
  for (int i = 0; i < num_tasks; ++i) {
    const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals - 1));
    const Interval len =
        1 + static_cast<Interval>(rng.UniformInt(num_intervals - start));
    std::vector<float> usage(len);
    for (auto& u : usage) {
      u = static_cast<float>(rng.UniformDouble());
    }
    tasks.push_back(MakeTask(i + 1, start, std::move(usage)));
  }
  CellTrace cell = OneMachineCell(std::move(tasks), num_intervals);
  const std::vector<double> fast = ComputePeakOracle(cell, 0, param.horizon);
  const std::vector<double> brute = BruteForceOracle(cell, 0, param.horizon);
  ASSERT_EQ(fast.size(), brute.size());
  for (size_t t = 0; t < fast.size(); ++t) {
    ASSERT_NEAR(fast[t], brute[t], 1e-9) << "t=" << t << " seed=" << param.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, OraclePropertyTest,
                         ::testing::Values(OracleCase{1, 1}, OracleCase{2, 5},
                                           OracleCase{3, 10}, OracleCase{4, 24},
                                           OracleCase{5, 60}, OracleCase{6, 7},
                                           OracleCase{7, 13}, OracleCase{8, 30}));

// A one-machine cell of random tasks: staggered arrivals, single-interval
// tasks, and tasks that outlive the trace.
CellTrace RandomOneMachineCell(Rng& rng, Interval num_intervals) {
  std::vector<TaskSpec> tasks;
  const int num_tasks = 3 + static_cast<int>(rng.UniformInt(12));
  for (int i = 0; i < num_tasks; ++i) {
    const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
    const Interval len =
        1 + static_cast<Interval>(rng.UniformInt(num_intervals - start + 4));
    std::vector<float> usage(len);
    for (auto& u : usage) {
      u = static_cast<float>(rng.UniformDouble());
    }
    tasks.push_back(MakeTask(i + 1, start, std::move(usage)));
  }
  return OneMachineCell(std::move(tasks), num_intervals);
}

// Range oracles are exact slices of the full series: the same aggregate
// additions in the same order, then an exact max — so EXPECT_EQ on doubles.
TEST(OracleRangeTest, RangesAreBitIdenticalSlicesOfTheFullSeries) {
  Rng rng(80);
  for (int trial = 0; trial < 12; ++trial) {
    const Interval num_intervals = 20 + static_cast<Interval>(rng.UniformInt(60));
    const CellTrace cell = RandomOneMachineCell(rng, num_intervals);
    const Interval horizons[] = {1, 6, 24, num_intervals, num_intervals + 4,
                                 std::numeric_limits<Interval>::max() - 1,
                                 std::numeric_limits<Interval>::max()};
    for (const Interval horizon : horizons) {
      for (const OracleKind kind : {OracleKind::kPeak, OracleKind::kTotalUsage}) {
        const bool peak = kind == OracleKind::kPeak;
        const std::vector<double> full = peak ? ComputePeakOracle(cell, 0, horizon)
                                              : ComputeTotalUsageOracle(cell, 0, horizon);
        ASSERT_EQ(full.size(), static_cast<size_t>(num_intervals));

        std::vector<std::pair<Interval, Interval>> ranges = {
            {0, num_intervals}, {0, 0}, {num_intervals, num_intervals}, {5, 5}};
        for (int r = 0; r < 8; ++r) {
          const Interval a = static_cast<Interval>(rng.UniformInt(num_intervals + 1));
          const Interval b = static_cast<Interval>(rng.UniformInt(num_intervals + 1));
          ranges.emplace_back(std::min(a, b), std::max(a, b));
        }
        // Reused scratch and output, as the streaming replayer reuses them.
        OracleScratch scratch;
        std::vector<double> out = {-1.0};
        for (const auto& [begin, end] : ranges) {
          SCOPED_TRACE(::testing::Message() << "trial=" << trial << " T=" << num_intervals
                                            << " h=" << horizon << " peak=" << peak
                                            << " range=[" << begin << "," << end << ")");
          if (peak) {
            ComputePeakOracleRangeInto(cell, 0, horizon, begin, end, scratch, out);
          } else {
            ComputeTotalUsageOracleRangeInto(cell, 0, horizon, begin, end, scratch, out);
          }
          ASSERT_EQ(out.size(), static_cast<size_t>(end - begin));
          for (Interval t = begin; t < end; ++t) {
            EXPECT_EQ(out[t - begin], full[t]) << "t=" << t;
          }
        }
      }
    }
  }
}

// Chunking a generated multi-machine cell the way the streaming replayer
// does (consecutive chunks of max(horizon, one day) ticks) reassembles the
// full series exactly.
TEST(OracleRangeTest, ConsecutiveChunksReassembleTheFullSeries) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 4;
  GeneratorOptions options;
  options.num_intervals = 2 * kIntervalsPerDay + 37;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(81));
  OracleScratch scratch;
  std::vector<double> chunk;
  for (const Interval horizon : {Interval{1}, Interval{12}, kIntervalsPerDay}) {
    const Interval length = std::max(horizon, kIntervalsPerDay);
    for (int m = 0; m < profile.num_machines; ++m) {
      const std::vector<double> full = ComputePeakOracle(cell, m, horizon);
      std::vector<double> joined;
      for (Interval begin = 0; begin < cell.num_intervals; begin += length) {
        const Interval end = std::min(begin + length, cell.num_intervals);
        ComputePeakOracleRangeInto(cell, m, horizon, begin, end, scratch, chunk);
        joined.insert(joined.end(), chunk.begin(), chunk.end());
      }
      EXPECT_EQ(joined, full) << "h=" << horizon << " m=" << m;
    }
  }
}

TEST(OracleTest, TotalUsageOracleUpperBoundsFiltered) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 6;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(70));
  for (int m = 0; m < profile.num_machines; ++m) {
    const std::vector<double> filtered = ComputePeakOracle(cell, m, 48);
    const std::vector<double> unfiltered = ComputeTotalUsageOracle(cell, m, 48);
    for (size_t t = 0; t < filtered.size(); ++t) {
      EXPECT_GE(unfiltered[t], filtered[t] - 1e-9);
    }
  }
}

TEST(OracleTest, MonotoneInHorizon) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 4;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(71));
  for (int m = 0; m < profile.num_machines; ++m) {
    const std::vector<double> short_h = ComputePeakOracle(cell, m, 12);
    const std::vector<double> long_h = ComputePeakOracle(cell, m, 96);
    for (size_t t = 0; t < short_h.size(); ++t) {
      EXPECT_LE(short_h[t], long_h[t] + 1e-9);
    }
  }
}

// With a fixed task set (everything resident from t=0, nothing arrives
// later) and a horizon covering the whole remaining trace, the oracle is the
// running max of the future aggregate — monotonically non-increasing in tau.
TEST(OracleTest, NonIncreasingInTauForFixedTaskSet) {
  Rng rng(73);
  const Interval num_intervals = 48;
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> usage(num_intervals);
    for (auto& u : usage) {
      u = static_cast<float>(rng.UniformDouble());
    }
    tasks.push_back(MakeTask(i + 1, 0, std::move(usage)));
  }
  const CellTrace cell = OneMachineCell(std::move(tasks), num_intervals);
  const std::vector<double> oracle = ComputePeakOracle(cell, 0, num_intervals);
  for (size_t t = 1; t < oracle.size(); ++t) {
    EXPECT_LE(oracle[t], oracle[t - 1] + 1e-12) << "t=" << t;
  }
}

// When every task starts at 0 the arrival filter admits all of them at every
// tau, so the oracle degenerates to ForwardWindowMax of the aggregate series.
TEST(OracleTest, EqualsForwardWindowMaxWhenAllTasksStartAtZero) {
  Rng rng(74);
  const Interval num_intervals = 40;
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 6; ++i) {
    // Staggered *lengths* (departures) are fine; only arrivals must align.
    const Interval len = 10 + static_cast<Interval>(rng.UniformInt(num_intervals - 9));
    std::vector<float> usage(len);
    for (auto& u : usage) {
      u = static_cast<float>(rng.UniformDouble());
    }
    tasks.push_back(MakeTask(i + 1, 0, std::move(usage)));
  }
  const CellTrace cell = OneMachineCell(std::move(tasks), num_intervals);
  for (const Interval horizon : {Interval{1}, Interval{7}, Interval{24}, num_intervals}) {
    const std::vector<double> oracle = ComputePeakOracle(cell, 0, horizon);
    const std::vector<double> window_max =
        ForwardWindowMax(cell.MachineUsageSeries(0), horizon);
    ASSERT_EQ(oracle.size(), window_max.size());
    for (size_t t = 0; t < oracle.size(); ++t) {
      // NEAR, not EQ: the two paths may sum task usages in different orders.
      EXPECT_NEAR(oracle[t], window_max[t], 1e-12) << "h=" << horizon << " t=" << t;
    }
  }
}

TEST(OracleCacheTest, HitIsBitIdenticalToMiss) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 3;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(75));

  OracleCache cache;
  for (int m = 0; m < profile.num_machines; ++m) {
    const OracleCache::Series miss = cache.GetOrCompute(cell, m, 24, OracleKind::kPeak);
    const OracleCache::Series hit = cache.GetOrCompute(cell, m, 24, OracleKind::kPeak);
    // A hit returns the very same series object, so it is bit-identical by
    // construction — and both match a from-scratch computation exactly.
    EXPECT_EQ(miss.get(), hit.get());
    const std::vector<double> direct = ComputePeakOracle(cell, m, 24);
    ASSERT_EQ(miss->size(), direct.size());
    for (size_t t = 0; t < direct.size(); ++t) {
      EXPECT_EQ((*miss)[t], direct[t]) << "m=" << m << " t=" << t;
    }
  }
  EXPECT_EQ(cache.misses(), profile.num_machines);
  EXPECT_EQ(cache.hits(), profile.num_machines);
  EXPECT_EQ(cache.size(), static_cast<size_t>(profile.num_machines));
}

TEST(OracleCacheTest, DistinctKeysDoNotCollide) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 2;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(76));

  OracleCache cache;
  const auto peak_h24 = cache.GetOrCompute(cell, 0, 24, OracleKind::kPeak);
  const auto peak_h48 = cache.GetOrCompute(cell, 0, 48, OracleKind::kPeak);
  const auto total_h24 = cache.GetOrCompute(cell, 0, 24, OracleKind::kTotalUsage);
  const auto other_machine = cache.GetOrCompute(cell, 1, 24, OracleKind::kPeak);
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.size(), 4u);

  // Each key maps to the right computation.
  EXPECT_EQ(*peak_h24, ComputePeakOracle(cell, 0, 24));
  EXPECT_EQ(*peak_h48, ComputePeakOracle(cell, 0, 48));
  EXPECT_EQ(*total_h24, ComputeTotalUsageOracle(cell, 0, 24));
  EXPECT_EQ(*other_machine, ComputePeakOracle(cell, 1, 24));

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  cache.GetOrCompute(cell, 0, 24, OracleKind::kPeak);
  EXPECT_EQ(cache.misses(), 5) << "Clear() must force recomputation";
}

TEST(OracleTest, OracleAtLeastCurrentUsage) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 4;
  GeneratorOptions options;
  options.num_intervals = kIntervalsPerDay;
  const CellTrace cell = GenerateCellTrace(profile, options, Rng(72));
  for (int m = 0; m < profile.num_machines; ++m) {
    const std::vector<double> oracle = ComputePeakOracle(cell, m, 24);
    const std::vector<double> usage = cell.MachineUsageSeries(m);
    for (size_t t = 0; t < usage.size(); ++t) {
      EXPECT_GE(oracle[t], usage[t] - 1e-9);
    }
  }
}

}  // namespace
}  // namespace crf
