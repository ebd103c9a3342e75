// Checkpoint/restore contract (checkpoint.h): a run interrupted at any
// interval boundary and restored from its checkpoint file finishes
// bit-identically to the uninterrupted run, and any damaged or mismatched
// file is rejected with a diagnostic — never a crash or a CHECK abort.

#include "crf/serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/serve/replay.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

CellTrace RandomCell(uint64_t seed, const std::string& name = "ckpt_cell",
                     Interval min_intervals = 40) {
  Rng rng(seed);
  const Interval num_intervals = min_intervals + static_cast<Interval>(rng.UniformInt(21));
  const int num_machines = 2 + static_cast<int>(rng.UniformInt(4));
  CellTraceBuilder builder(name, num_intervals, num_machines);

  TaskId next_id = 1;
  for (int m = 0; m < num_machines; ++m) {
    const int num_tasks = 1 + static_cast<int>(rng.UniformInt(12));
    for (int i = 0; i < num_tasks; ++i) {
      const TaskId id = next_id++;
      const Interval start = static_cast<Interval>(rng.UniformInt(num_intervals));
      const double limit = 0.05 + rng.UniformDouble() * 0.95;
      const Interval len = 1 + static_cast<Interval>(rng.UniformInt(num_intervals - start + 3));
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

// ctest runs each gtest case as its own process, so files must be unique
// per test to survive a parallel run. Parameterized test names contain '/'.
std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& c : tag) {
    if (c == '/') {
      c = '_';
    }
  }
  return ::testing::TempDir() + "/" + tag + "_" + name;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(file)));
  std::fseek(file, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
  return bytes;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file), bytes.size());
  std::fclose(file);
}

void ExpectResultsBitIdentical(const SimResult& restored, const SimResult& uninterrupted) {
  ASSERT_EQ(restored.machines.size(), uninterrupted.machines.size());
  for (size_t m = 0; m < uninterrupted.machines.size(); ++m) {
    const MachineMetrics& a = restored.machines[m];
    const MachineMetrics& b = uninterrupted.machines[m];
    SCOPED_TRACE(::testing::Message() << "machine=" << m);
    EXPECT_EQ(a.occupied_intervals, b.occupied_intervals);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.mean_violation_severity, b.mean_violation_severity);
    EXPECT_EQ(a.savings_ratio, b.savings_ratio);
    EXPECT_EQ(a.mean_prediction, b.mean_prediction);
    EXPECT_EQ(a.mean_limit, b.mean_limit);
  }
  EXPECT_EQ(restored.cell_savings_series, uninterrupted.cell_savings_series);
}

class StreamCheckpointTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamCheckpointTest, RestoreContinuesBitIdentically) {
  const int case_index = GetParam();
  const CellTrace cell = RandomCell(500 + static_cast<uint64_t>(case_index));
  PredictorSpec spec;
  switch (case_index % 4) {
    case 0:
      spec = MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
      break;
    case 1:
      spec = AutopilotSpec(95.0, 1.2, 3, 8);
      break;
    case 2:
      spec = ChanceSpec(0.02, 3, 8);
      break;
    default:
      spec = MaxSpec({FlexSpec(95.0, 1.2, 3, 8), ChanceSpec(0.05, 3, 8)});
      break;
  }
  ReplayOptions options;
  options.num_shards = 4;

  StreamReplayer uninterrupted(cell, spec, options);
  uninterrupted.AdvanceToEnd();
  const SimResult expected = uninterrupted.Finish();
  const uint64_t expected_events = uninterrupted.Metrics().TotalEvents();

  const Interval cuts[] = {0, 1, cell.num_intervals / 2, cell.num_intervals - 1,
                           cell.num_intervals};
  for (const Interval cut : cuts) {
    SCOPED_TRACE(::testing::Message() << "cut=" << cut << "/" << cell.num_intervals);
    const std::string path = TempPath("ckpt_roundtrip.crfckpt");

    StreamReplayer first(cell, spec, options);
    first.Advance(cut);
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(first, path, &error)) << error;

    auto restored = LoadCheckpoint(path, cell, options, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->next_tick(), cut);
    restored->AdvanceToEnd();
    ExpectResultsBitIdentical(restored->Finish(), expected);
    EXPECT_EQ(restored->Metrics().TotalEvents(), expected_events);
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamCheckpointTest, ::testing::Range(0, 8));

// Scoring-oracle chunks are derived state, never checkpointed: a replayer
// restored at a tick inside a chunk recomputes its chunks from the resume
// tick, and the continuation stays bit-identical for both oracle kinds.
TEST(StreamCheckpointOracleChunkTest, RestoreInsideAChunkContinuesBitIdentically) {
  const CellTrace cell = RandomCell(520, "ckpt_chunk_cell", 2 * kIntervalsPerDay + 40);
  const PredictorSpec spec = MaxSpec({NSigmaSpec(5.0, 3, 8), RcLikeSpec(99.0, 3, 8)});
  for (const bool total_usage : {false, true}) {
    ReplayOptions options;
    options.num_shards = 4;
    options.horizon = 6;
    options.use_total_usage_oracle = total_usage;
    const Interval oracle_chunk = kIntervalsPerDay;  // max(horizon, one day)

    StreamReplayer uninterrupted(cell, spec, options);
    uninterrupted.AdvanceToEnd();
    const SimResult expected = uninterrupted.Finish();

    for (const Interval cut : {Interval{100}, kIntervalsPerDay + 7}) {
      SCOPED_TRACE(::testing::Message() << "total_usage=" << total_usage << " cut=" << cut);
      ASSERT_NE(cut % oracle_chunk, 0);
      const std::string path = TempPath("ckpt_chunk.crfckpt");
      StreamReplayer first(cell, spec, options);
      first.Advance(cut);
      std::string error;
      ASSERT_TRUE(SaveCheckpoint(first, path, &error)) << error;

      auto restored = LoadCheckpoint(path, cell, options, &error);
      ASSERT_NE(restored, nullptr) << error;
      restored->AdvanceToEnd();
      ExpectResultsBitIdentical(restored->Finish(), expected);

      const ServeMetrics& metrics = restored->Metrics();
      uint64_t chunks = 0;
      for (int s = 0; s < metrics.num_shards(); ++s) {
        chunks += metrics.shard(s).oracle_chunks;
      }
      const Interval remaining = cell.num_intervals - cut;
      EXPECT_EQ(chunks, static_cast<uint64_t>(cell.num_machines()) *
                            static_cast<uint64_t>((remaining + oracle_chunk - 1) / oracle_chunk));
    }
  }
}

// Builds one valid checkpoint (cut mid-run) and returns its bytes plus the
// context needed to attempt restores against it.
struct CheckpointFixture {
  CellTrace cell = RandomCell(321);
  PredictorSpec spec;
  ReplayOptions options;
  std::string path = TempPath("ckpt_corrupt.crfckpt");
  std::vector<uint8_t> bytes;

  explicit CheckpointFixture(PredictorSpec fixture_spec = NSigmaSpec(3.0, 3, 8))
      : spec(std::move(fixture_spec)) {
    options.num_shards = 4;
    StreamReplayer replayer(cell, spec, options);
    replayer.Advance(cell.num_intervals / 2);
    std::string error;
    EXPECT_TRUE(SaveCheckpoint(replayer, path, &error)) << error;
    bytes = ReadAll(path);
  }

  // Writes `mutated` to disk and expects LoadCheckpoint to reject it.
  void ExpectRejected(const std::vector<uint8_t>& mutated, const std::string& label) {
    SCOPED_TRACE(label);
    WriteAll(path, mutated);
    std::string error;
    EXPECT_EQ(LoadCheckpoint(path, cell, options, &error), nullptr);
    EXPECT_FALSE(error.empty());
  }
};

TEST(StreamCheckpointCorruptionTest, TruncationsAreRejected) {
  CheckpointFixture fixture;
  ASSERT_GT(fixture.bytes.size(), 64u);
  std::vector<size_t> lengths = {0, 1, 17, 63, 64, 65, fixture.bytes.size() - 1};
  for (size_t step = 97; step < fixture.bytes.size(); step += 997) {
    lengths.push_back(step);
  }
  for (const size_t length : lengths) {
    std::vector<uint8_t> truncated(fixture.bytes.begin(),
                                   fixture.bytes.begin() + static_cast<long>(length));
    fixture.ExpectRejected(truncated, "truncate to " + std::to_string(length));
  }
}

TEST(StreamCheckpointCorruptionTest, BitFlipsAreRejected) {
  CheckpointFixture fixture;
  // Magic, version, geometry fields, the trace-name byte right after the
  // header, the spec type byte, and a sample of payload bytes.
  std::vector<size_t> offsets = {0, 8, 16, 20, 64};
  const size_t name_length = fixture.cell.name.size();
  offsets.push_back(64 + name_length);  // First spec byte (the type tag).
  for (size_t off = 64 + name_length + 80; off < fixture.bytes.size(); off += 1013) {
    offsets.push_back(off);  // Payload bytes: caught by the FNV-1a checksum.
  }
  for (const size_t offset : offsets) {
    ASSERT_LT(offset, fixture.bytes.size());
    std::vector<uint8_t> flipped = fixture.bytes;
    flipped[offset] ^= 0x40;
    fixture.ExpectRejected(flipped, "flip byte " + std::to_string(offset));
  }
}

// The new families carry different per-machine state blobs (a machine-level
// order-statistics window for chance, a ratio window for flex): truncations
// and bit flips inside those payloads must be rejected the same way.
TEST(StreamCheckpointCorruptionTest, NewFamilyPayloadDamageIsRejected) {
  CheckpointFixture fixture(MaxSpec({ChanceSpec(0.02, 3, 8), FlexSpec(90.0, 1.5, 3, 8)}));
  ASSERT_GT(fixture.bytes.size(), 128u);
  for (size_t step = 97; step < fixture.bytes.size(); step += 613) {
    std::vector<uint8_t> truncated(fixture.bytes.begin(),
                                   fixture.bytes.begin() + static_cast<long>(step));
    fixture.ExpectRejected(truncated, "truncate to " + std::to_string(step));
  }
  for (size_t off = 64; off < fixture.bytes.size(); off += 487) {
    std::vector<uint8_t> flipped = fixture.bytes;
    flipped[off] ^= 0x08;
    fixture.ExpectRejected(flipped, "flip byte " + std::to_string(off));
  }
}

TEST(StreamCheckpointCorruptionTest, GarbageAndEmptyFilesAreRejected) {
  CheckpointFixture fixture;
  fixture.ExpectRejected({}, "empty file");
  std::vector<uint8_t> garbage(300, 0x5A);
  fixture.ExpectRejected(garbage, "garbage file");
}

TEST(StreamCheckpointMismatchTest, WrongTraceIsRejected) {
  CheckpointFixture fixture;
  const CellTrace other = RandomCell(9876, "other_cell");
  std::string error;
  EXPECT_EQ(LoadCheckpoint(fixture.path, other, fixture.options, &error), nullptr);
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST(StreamCheckpointMismatchTest, WrongShardCountIsRejectedWithHint) {
  CheckpointFixture fixture;
  ReplayOptions wrong = fixture.options;
  wrong.num_shards = 8;
  std::string error;
  EXPECT_EQ(LoadCheckpoint(fixture.path, fixture.cell, wrong, &error), nullptr);
  EXPECT_NE(error.find("--shards=4"), std::string::npos) << error;
}

TEST(StreamCheckpointMismatchTest, OldVersionIsRejected) {
  CheckpointFixture fixture;
  // The header version is a little-endian u32 at offset 8 (after the magic).
  std::vector<uint8_t> old_version = fixture.bytes;
  old_version[8] = 1;
  WriteAll(fixture.path, old_version);
  std::string error;
  EXPECT_EQ(LoadCheckpoint(fixture.path, fixture.cell, fixture.options, &error), nullptr);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(StreamCheckpointMismatchTest, MissingFileIsRejected) {
  CheckpointFixture fixture;
  std::string error;
  EXPECT_EQ(LoadCheckpoint(TempPath("does_not_exist.crfckpt"), fixture.cell, fixture.options,
                           &error),
            nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(StreamCheckpointInfoTest, HeaderInspectionReportsIdentity) {
  CheckpointFixture fixture;
  CheckpointInfo info;
  std::string error;
  ASSERT_TRUE(ReadCheckpointInfo(fixture.path, &info, &error)) << error;
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.trace_name, fixture.cell.name);
  EXPECT_EQ(info.num_machines, fixture.cell.num_machines());
  EXPECT_EQ(info.num_intervals, fixture.cell.num_intervals);
  EXPECT_EQ(info.num_shards, 4);
  EXPECT_EQ(info.next_tick, fixture.cell.num_intervals / 2);
  EXPECT_EQ(info.spec_name, fixture.spec.Name());
  EXPECT_GT(info.payload_bytes, 0u);
}

}  // namespace
}  // namespace crf
