// Differential test: the streaming serve layer against the batch engine.
//
// The contract (replay.h) is bit-identity, not approximation: per-machine
// metrics from StreamReplayer must equal batch SimulateMachine's EXACTLY
// (same event permutation, same per-tick arithmetic), for every predictor
// family, at any shard count, parallel or serial, and regardless of how
// Advance is chunked. The merged cell savings series is bit-identical to the
// batch serial engine at num_shards=1 and within float tolerance otherwise
// (the shard merge groups machine partial sums differently).

#include "crf/serve/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/sim/simulator.h"
#include "crf/trace/generator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/byte_io.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

// Small adversarial cells: staggered arrivals/departures, empty machines,
// single-interval tasks, tasks outliving the trace (same shapes as
// simulator_differential_test).
CellTrace RandomCell(uint64_t seed, Interval min_intervals = 30) {
  Rng rng(seed);
  const Interval num_intervals = min_intervals + static_cast<Interval>(rng.UniformInt(31));
  const int num_machines = 1 + static_cast<int>(rng.UniformInt(6));
  CellTraceBuilder builder("stream_cell", num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    if (rng.UniformDouble() < 0.15) {
      continue;  // Empty machine.
    }
    const int num_tasks = 1 + static_cast<int>(rng.UniformInt(14));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      Interval len;
      const double shape = rng.UniformDouble();
      if (shape < 0.2) {
        len = 1;
      } else if (shape < 0.3) {
        len = num_intervals - start + 1 + static_cast<Interval>(rng.UniformInt(5));
      } else {
        len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start));
      }
      const int32_t index =
          builder.AddTask(id, id, m, start, limit, SchedulingClass::kLatencySensitive);
      builder.ReserveUsage(index, static_cast<size_t>(len));
      for (Interval k = 0; k < len; ++k) {
        builder.AppendUsage(index, static_cast<float>(limit * rng.UniformDouble()));
      }
    }
  }
  return builder.Seal();
}

// Every roster predictor family, with short warm-up/history windows so the
// small traces cover both warming and warmed regimes.
PredictorSpec SpecForCase(int index) {
  switch (index % 8) {
    case 0:
      return LimitSumSpec();
    case 1:
      return BorgDefaultSpec(0.85);
    case 2:
      return NSigmaSpec(3.0, 3, 8);
    case 3:
      return RcLikeSpec(95.0, 3, 8);
    case 4:
      return AutopilotSpec(95.0, 1.2, 3, 8);
    case 5:
      return ChanceSpec(0.05, 3, 8);
    case 6:
      return FlexSpec(90.0, 1.2, 3, 8);
    default:
      return MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
  }
}

// Exact comparison: the streaming engine claims bit-identity to batch.
void ExpectMetricsBitIdentical(const MachineMetrics& streamed, const MachineMetrics& batch) {
  SCOPED_TRACE(::testing::Message() << "machine=" << batch.machine_index);
  EXPECT_EQ(streamed.machine_index, batch.machine_index);
  EXPECT_EQ(streamed.intervals, batch.intervals);
  EXPECT_EQ(streamed.occupied_intervals, batch.occupied_intervals);
  EXPECT_EQ(streamed.violations, batch.violations);
  EXPECT_EQ(streamed.mean_violation_severity, batch.mean_violation_severity);
  EXPECT_EQ(streamed.savings_ratio, batch.savings_ratio);
  EXPECT_EQ(streamed.mean_prediction, batch.mean_prediction);
  EXPECT_EQ(streamed.mean_limit, batch.mean_limit);
  // Tail metrics (crf/risk) run through the same accumulator on both
  // engines, so they are bit-identical too.
  EXPECT_EQ(streamed.tail.severity_p99, batch.tail.severity_p99);
  EXPECT_EQ(streamed.tail.severity_p999, batch.tail.severity_p999);
  EXPECT_EQ(streamed.tail.max_violation_streak, batch.tail.max_violation_streak);
  EXPECT_EQ(streamed.tail.streak_p99, batch.tail.streak_p99);
  EXPECT_EQ(streamed.tail.streak_p999, batch.tail.streak_p999);
  EXPECT_EQ(streamed.tail.violation_time_fraction, batch.tail.violation_time_fraction);
  EXPECT_EQ(streamed.tail.savings_at_risk, batch.tail.savings_at_risk);
}

// Oracle horizons to rotate through: one tick, a few ticks, and longer than
// the trace.
Interval HorizonForCase(int index, Interval num_intervals) {
  return index % 3 == 0 ? 1 : (index % 3 == 1 ? 6 : num_intervals + 4);
}

// Long enough for more than two scoring-oracle chunks (max(horizon, one day)
// ticks each) at the short horizons, so chunk edges fall inside the trace.
constexpr Interval kMultiChunkIntervals = 2 * kIntervalsPerDay + 30;

uint64_t TotalOracleChunks(const ServeMetrics& metrics) {
  uint64_t total = 0;
  for (int s = 0; s < metrics.num_shards(); ++s) {
    total += metrics.shard(s).oracle_chunks;
  }
  return total;
}

class StreamReplayTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamReplayTest, MatchesBatchEngineBitForBit) {
  const int case_index = GetParam();
  const uint64_t seed = 7000 + static_cast<uint64_t>(case_index);
  const CellTrace cell = RandomCell(seed);
  const PredictorSpec spec = SpecForCase(case_index);

  SimOptions sim_options;
  sim_options.parallel = false;
  sim_options.use_total_usage_oracle = case_index % 4 == 3;
  sim_options.horizon = HorizonForCase(case_index, cell.num_intervals);
  const SimResult batch = SimulateCell(cell, spec, sim_options);

  for (const int num_shards : {1, 3, 16}) {
    for (const bool parallel : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " shards=" << num_shards << " parallel=" << parallel);
      ReplayOptions options;
      options.horizon = sim_options.horizon;
      options.use_total_usage_oracle = sim_options.use_total_usage_oracle;
      options.parallel = parallel;
      options.num_shards = num_shards;

      StreamReplayer replayer(cell, spec, options);
      replayer.AdvanceToEnd();
      const SimResult streamed = replayer.Finish();

      ASSERT_EQ(streamed.machines.size(), batch.machines.size());
      for (size_t m = 0; m < batch.machines.size(); ++m) {
        ExpectMetricsBitIdentical(streamed.machines[m], batch.machines[m]);
      }
      ASSERT_EQ(streamed.cell_savings_series.size(), batch.cell_savings_series.size());
      for (size_t t = 0; t < batch.cell_savings_series.size(); ++t) {
        if (num_shards == 1) {
          // Single shard accumulates machines in the same order as the batch
          // serial engine: the series is bit-identical too.
          EXPECT_EQ(streamed.cell_savings_series[t], batch.cell_savings_series[t]) << "t=" << t;
        } else {
          EXPECT_NEAR(streamed.cell_savings_series[t], batch.cell_savings_series[t], 1e-9)
              << "t=" << t;
        }
      }
      EXPECT_EQ(streamed.cell_name, batch.cell_name);
      EXPECT_EQ(streamed.predictor_name, batch.predictor_name);
    }
  }
}

TEST_P(StreamReplayTest, ChunkedAdvanceIsBitIdenticalToOneShot) {
  const int case_index = GetParam();
  const uint64_t seed = 7000 + static_cast<uint64_t>(case_index);
  const CellTrace cell = RandomCell(seed, kMultiChunkIntervals);
  const PredictorSpec spec = SpecForCase(case_index);

  ReplayOptions options;
  options.num_shards = 4;
  options.parallel = case_index % 2 == 0;
  options.use_total_usage_oracle = case_index % 4 == 3;
  options.horizon = HorizonForCase(case_index, cell.num_intervals);
  const Interval oracle_chunk = std::max(options.horizon, kIntervalsPerDay);

  StreamReplayer one_shot(cell, spec, options);
  one_shot.AdvanceToEnd();
  const SimResult expected = one_shot.Finish();

  // The one-shot replay crosses oracle chunk edges too; it stays bit-identical
  // to the batch engine, which scores against the full series.
  SimOptions sim_options;
  sim_options.parallel = false;
  sim_options.use_total_usage_oracle = options.use_total_usage_oracle;
  sim_options.horizon = options.horizon;
  const SimResult batch = SimulateCell(cell, spec, sim_options);
  ASSERT_EQ(expected.machines.size(), batch.machines.size());
  for (size_t m = 0; m < batch.machines.size(); ++m) {
    ExpectMetricsBitIdentical(expected.machines[m], batch.machines[m]);
  }

  // Window widths put oracle chunk edges inside windows (1 excepted) and on
  // window edges (1, and the chunk length itself).
  for (const Interval width :
       {Interval{1}, Interval{7}, oracle_chunk - 1, oracle_chunk, oracle_chunk + 1}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed << " horizon=" << options.horizon
                                      << " width=" << width);
    StreamReplayer chunked(cell, spec, options);
    while (!chunked.Done()) {
      chunked.Advance(std::min<Interval>(chunked.next_tick() + width, cell.num_intervals));
    }
    const SimResult actual = chunked.Finish();

    ASSERT_EQ(actual.machines.size(), expected.machines.size());
    for (size_t m = 0; m < expected.machines.size(); ++m) {
      ExpectMetricsBitIdentical(actual.machines[m], expected.machines[m]);
    }
    EXPECT_EQ(actual.cell_savings_series, expected.cell_savings_series);

    // The per-shard event sequence numbers are part of the determinism
    // contract: chunking must not change what each shard consumed.
    const ServeMetrics& chunked_metrics = chunked.Metrics();
    const ServeMetrics& one_shot_metrics = one_shot.Metrics();
    ASSERT_EQ(chunked_metrics.num_shards(), one_shot_metrics.num_shards());
    for (int s = 0; s < chunked_metrics.num_shards(); ++s) {
      EXPECT_EQ(chunked_metrics.shard(s).sequence, one_shot_metrics.shard(s).sequence);
      EXPECT_EQ(chunked_metrics.shard(s).ticks, one_shot_metrics.shard(s).ticks);
      EXPECT_EQ(chunked_metrics.shard(s).max_batch_events,
                one_shot_metrics.shard(s).max_batch_events);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamReplayTest, ::testing::Range(0, 12));

TEST(StreamReplayMetricsTest, CountersAndJsonAreCoherent) {
  const CellTrace cell = RandomCell(99);
  StreamReplayer replayer(cell, NSigmaSpec(3.0, 3, 8), ReplayOptions{});
  replayer.AdvanceToEnd();
  (void)replayer.Finish();
  const ServeMetrics& metrics = replayer.Metrics();

  // One tick per (machine, interval); every task contributes one arrival,
  // at most one departure, and one sample per resident interval.
  EXPECT_EQ(metrics.TotalTicks(),
            static_cast<uint64_t>(cell.num_machines()) *
                static_cast<uint64_t>(cell.num_intervals));
  EXPECT_GT(metrics.TotalEvents(), metrics.TotalTicks() / 2);

  uint64_t shard_sum = 0;
  for (int s = 0; s < metrics.num_shards(); ++s) {
    shard_sum += metrics.shard(s).sequence;
  }
  EXPECT_EQ(shard_sum, metrics.TotalEvents());

  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("\"events\": " + std::to_string(metrics.TotalEvents())),
            std::string::npos);
  EXPECT_NE(json.find("\"violations\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
}

// The oracle work as a count: from tick 0 each machine computes ⌈T/L⌉
// chunks (L = max(horizon, one day)), however Advance slices the trace. The
// generated cell is two days long, a whole number of one-day chunks.
TEST(StreamReplayMetricsTest, OracleChunksCountIsSliceInvariant) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 6;
  GeneratorOptions generator_options;
  generator_options.num_intervals = 2 * kIntervalsPerDay;
  const CellTrace cells[] = {RandomCell(98, kMultiChunkIntervals),
                             GenerateCellTrace(profile, generator_options, Rng(99))};
  for (const CellTrace& cell : cells) {
    const Interval num_intervals = cell.num_intervals;
    for (const Interval horizon : {Interval{6}, kIntervalsPerDay + 5, num_intervals + 4}) {
      const Interval oracle_chunk = std::max(horizon, kIntervalsPerDay);
      const uint64_t expected = static_cast<uint64_t>(cell.num_machines()) *
                                static_cast<uint64_t>((num_intervals + oracle_chunk - 1) /
                                                      oracle_chunk);
      for (const Interval width : {Interval{1}, Interval{12}, Interval{100}, num_intervals}) {
        SCOPED_TRACE(::testing::Message() << "T=" << num_intervals << " horizon=" << horizon
                                          << " width=" << width);
        ReplayOptions options;
        options.horizon = horizon;
        options.num_shards = 3;
        StreamReplayer replayer(cell, NSigmaSpec(3.0, 3, 8), options);
        while (!replayer.Done()) {
          replayer.Advance(std::min<Interval>(replayer.next_tick() + width, num_intervals));
        }
        const ServeMetrics& metrics = replayer.Metrics();
        EXPECT_EQ(TotalOracleChunks(metrics), expected);
        EXPECT_NE(metrics.ToJson().find("\"oracle_chunks\": " +
                                        std::to_string(metrics.shard(0).oracle_chunks)),
                  std::string::npos);
      }
    }
  }
}

// Push-mode ingest (the network tier's path) in hour-long windows: each
// shard's machines pushed one at a time in ascending order, every window
// committed for all shards, must equal one AdvanceToEnd bit for bit.
TEST(StreamReplayPushTest, WindowedPushIsBitIdenticalToAdvanceToEnd) {
  const CellTrace cell = RandomCell(97, kMultiChunkIntervals);
  const PredictorSpec spec = MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
  ReplayOptions options;
  options.num_shards = 3;
  options.horizon = 6;

  StreamReplayer advanced(cell, spec, options);
  advanced.AdvanceToEnd();
  const SimResult expected = advanced.Finish();

  StreamReplayer pushed(cell, spec, options);
  const EventLog log(cell);
  std::vector<EventLog::MachineCursor> cursors;
  for (int m = 0; m < cell.num_machines(); ++m) {
    cursors.push_back(log.CreateCursor(m));
  }
  std::vector<StreamEvent> events;
  constexpr Interval kWindow = kIntervalsPerHour;
  for (Interval from = 0; from < cell.num_intervals; from += kWindow) {
    const Interval until = std::min(from + kWindow, cell.num_intervals);
    // Shards own contiguous machine blocks, so ascending machine order is
    // ascending order within every shard.
    for (int m = 0; m < cell.num_machines(); ++m) {
      for (Interval tau = from; tau < until; ++tau) {
        events.clear();
        cursors[m].EmitTick(tau, events);
        pushed.PushMachineTick(m, tau, events);
      }
    }
    ASSERT_TRUE(pushed.CommitPushedWindow(until));
  }
  ASSERT_TRUE(pushed.Done());
  const SimResult actual = pushed.Finish();

  ASSERT_EQ(actual.machines.size(), expected.machines.size());
  for (size_t m = 0; m < expected.machines.size(); ++m) {
    ExpectMetricsBitIdentical(actual.machines[m], expected.machines[m]);
  }
  EXPECT_EQ(actual.cell_savings_series, expected.cell_savings_series);
  const ServeMetrics& pushed_metrics = pushed.Metrics();
  const ServeMetrics& advanced_metrics = advanced.Metrics();
  for (int s = 0; s < options.num_shards; ++s) {
    EXPECT_EQ(pushed_metrics.shard(s).sequence, advanced_metrics.shard(s).sequence);
    EXPECT_EQ(pushed_metrics.shard(s).ticks, advanced_metrics.shard(s).ticks);
    EXPECT_EQ(pushed_metrics.shard(s).oracle_chunks, advanced_metrics.shard(s).oracle_chunks);
  }
}

// A malformed push is rejected by status, never a CHECK-abort: it returns
// an error naming the fault, leaves the replayer's checkpoint bytes
// untouched (no counter, risk record, series entry or roster change), and a
// following valid push continues to the bit-identical end state.
TEST(StreamReplayPushTest, MalformedTickIsRejectedWithoutSideEffects) {
  // Machine 0 at tick 3: task b departs, c arrives, a and d survive, so the
  // tick has every event kind and a roster of more than one survivor.
  constexpr Interval kTicks = 12;
  CellTraceBuilder builder("reject_cell", kTicks, 2);
  const auto add_task = [&builder](TaskId id, int machine, Interval start, Interval len) {
    const int32_t index =
        builder.AddTask(id, id, machine, start, 0.1 * static_cast<double>(id),
                        SchedulingClass::kLatencySensitive);
    for (Interval k = 0; k < len; ++k) {
      builder.AppendUsage(index, static_cast<float>(0.01 * static_cast<double>(id + k)));
    }
  };
  add_task(1, 0, 0, 10);  // a
  add_task(2, 0, 0, 3);   // b
  add_task(3, 0, 1, 11);  // d
  add_task(4, 0, 3, 5);   // c
  add_task(5, 1, 0, 8);
  const CellTrace cell = builder.Seal();
  const PredictorSpec spec = MaxSpec({NSigmaSpec(5.0, 2, 4), RcLikeSpec(99.0, 2, 4)});
  ReplayOptions options;
  options.num_shards = 1;
  options.horizon = 4;

  StreamReplayer advanced(cell, spec, options);
  advanced.AdvanceToEnd();
  ByteWriter expected;
  advanced.SaveStateTo(expected);

  // Every tick's valid batch, per machine.
  const EventLog log(cell);
  std::vector<std::vector<std::vector<StreamEvent>>> ticks(cell.num_machines());
  for (int m = 0; m < cell.num_machines(); ++m) {
    EventLog::MachineCursor cursor = log.CreateCursor(m);
    ticks[m].resize(kTicks);
    for (Interval tau = 0; tau < kTicks; ++tau) {
      cursor.EmitTick(tau, ticks[m][tau]);
    }
  }
  constexpr Interval kBadTick = 3;
  const std::vector<StreamEvent>& valid = ticks[0][kBadTick];
  ASSERT_EQ(valid.size(), 5u);
  ASSERT_EQ(valid[0].kind, StreamEventKind::kTaskDeparture);
  ASSERT_EQ(valid[1].kind, StreamEventKind::kTaskArrival);
  const StreamEvent departure = valid[0];
  const StreamEvent arrival = valid[1];
  const StreamEvent first_sample = valid[2];

  const auto with_kind = [](StreamEvent event, StreamEventKind kind) {
    event.kind = kind;
    return event;
  };
  struct Variant {
    const char* name;
    Interval tau;
    std::function<void(std::vector<StreamEvent>&)> mutate;
    const char* error;
  };
  const std::vector<Variant> variants = {
      {"departure not resident", kBadTick,
       [&](std::vector<StreamEvent>& e) {
         e.insert(e.begin(), with_kind(arrival, StreamEventKind::kTaskDeparture));
       },
       "not resident"},
      {"departure listed twice", kBadTick,
       [&](std::vector<StreamEvent>& e) { e.insert(e.begin(), departure); }, "listed twice"},
      {"arrival already resident", kBadTick,
       [&](std::vector<StreamEvent>& e) {
         e.insert(e.begin() + 2, with_kind(first_sample, StreamEventKind::kTaskArrival));
         e.push_back(first_sample);
       },
       "already resident"},
      {"missing sample", kBadTick, [](std::vector<StreamEvent>& e) { e.pop_back(); },
       "do not match"},
      {"extra sample", kBadTick, [&](std::vector<StreamEvent>& e) { e.push_back(first_sample); },
       "do not match"},
      {"reordered samples", kBadTick,
       [](std::vector<StreamEvent>& e) { std::swap(e[2], e[3]); }, "do not match"},
      {"arrival after a sample", kBadTick,
       [](std::vector<StreamEvent>& e) { std::swap(e[1], e[2]); }, "canonical order"},
      {"tick at the last tick", kBadTick - 1, [](std::vector<StreamEvent>&) {},
       "last ingested tick"},
      {"tick before the last tick", 0, [](std::vector<StreamEvent>&) {}, "last ingested tick"},
  };

  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    StreamReplayer pushed(cell, spec, options);
    std::string error;
    for (Interval tau = 0; tau < kBadTick; ++tau) {
      ASSERT_TRUE(pushed.PushMachineTick(0, tau, ticks[0][tau], &error)) << error;
    }
    ByteWriter before;
    pushed.SaveStateTo(before);

    std::vector<StreamEvent> bad = ticks[0][variant.tau];
    variant.mutate(bad);
    EXPECT_FALSE(pushed.PushMachineTick(0, variant.tau, bad, &error));
    EXPECT_NE(error.find(variant.error), std::string::npos) << error;
    ByteWriter after;
    pushed.SaveStateTo(after);
    EXPECT_EQ(after.bytes(), before.bytes());

    for (int m = 0; m < cell.num_machines(); ++m) {
      for (Interval tau = m == 0 ? kBadTick : 0; tau < kTicks; ++tau) {
        ASSERT_TRUE(pushed.PushMachineTick(m, tau, ticks[m][tau], &error)) << error;
      }
    }
    ASSERT_TRUE(pushed.CommitPushedWindow(kTicks));
    ByteWriter end;
    pushed.SaveStateTo(end);
    EXPECT_EQ(end.bytes(), expected.bytes());
  }
}

}  // namespace
}  // namespace crf
