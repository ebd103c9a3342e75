// The zero-allocation contract (DESIGN.md §6, §7): once warm, the per-tick
// paths — the batch simulator, the fused sweep, the streaming replayer and
// the closed-loop cluster machine — allocate nothing per tick, churn
// included. This binary replaces the global operator new with a counting
// one and runs each path on a churning cell of T ticks and of 2T ticks. The
// whole-cell engines are counted per call after a warm-up call: the two
// counts must be equal, so the extra T ticks cost zero allocations. The
// tick-driven paths are counted per tick after the first period: zero on
// both cells.
//
// The cell keeps every machine's roster size constant while tasks depart
// and arrive on fixed periods that divide 12, so every tick repeats the
// roster pattern of the first period, where every buffer reaches its
// high-water size (all slots turn over together at tick 12).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "crf/cluster/machine.h"
#include "crf/core/predictor_factory.h"
#include "crf/serve/replay.h"
#include "crf/sim/simulator.h"
#include "crf/trace/trace_builder.h"
#include "crf/util/rng.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace crf {
namespace {

constexpr Interval kPeriod = 12;  // Every slot's task runtime divides it.
constexpr Interval kShort = 4 * kPeriod;

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// One machine's roster layout: slot j hosts back-to-back tasks of runtime
// runtimes[j], so a task departs and its successor arrives on the same tick.
struct MachineLayout {
  std::vector<Interval> runtimes;
  std::vector<double> limits;
};

std::vector<MachineLayout> ChurningLayout(int num_machines, uint64_t seed) {
  constexpr Interval kRuntimes[] = {1, 2, 3, 4, 6, 12};
  Rng rng(seed);
  std::vector<MachineLayout> layout(num_machines);
  for (MachineLayout& machine : layout) {
    const int slots = 3 + static_cast<int>(rng.UniformInt(6));
    for (int j = 0; j < slots; ++j) {
      machine.runtimes.push_back(kRuntimes[rng.UniformInt(6)]);
      machine.limits.push_back(0.05 + 0.2 * rng.UniformDouble());
    }
  }
  return layout;
}

// A cell of `num_intervals` ticks (a multiple of kPeriod) on `layout`, with
// random usage.
CellTrace ChurningCell(const std::vector<MachineLayout>& layout, Interval num_intervals,
                       uint64_t seed) {
  Rng rng(seed);
  CellTraceBuilder builder("churn", num_intervals, static_cast<int>(layout.size()));
  TaskId next_id = 1;
  for (int m = 0; m < static_cast<int>(layout.size()); ++m) {
    const MachineLayout& machine = layout[m];
    for (size_t j = 0; j < machine.runtimes.size(); ++j) {
      for (Interval start = 0; start < num_intervals; start += machine.runtimes[j]) {
        const TaskId id = next_id++;
        const int32_t index = builder.AddTask(id, id, m, start, machine.limits[j],
                                              SchedulingClass::kLatencySensitive);
        builder.ReserveUsage(index, static_cast<size_t>(machine.runtimes[j]));
        for (Interval k = 0; k < machine.runtimes[j]; ++k) {
          builder.AppendUsage(index,
                              static_cast<float>(machine.limits[j] * rng.UniformDouble()));
        }
      }
    }
  }
  return builder.Seal();
}

// Small windows so every window fills within the first period.
PredictorSpec AllFamiliesSpec() {
  return MaxSpec({RcLikeSpec(99.0, 3, 10), NSigmaSpec(5.0, 3, 10), ChanceSpec(0.05, 3, 10),
                  AutopilotSpec(98.0, 1.1, 3, 10), FlexSpec(95.0, 1.2, 3, 10),
                  BorgDefaultSpec(0.9), LimitSumSpec()});
}

// Runs `run(cell)` once to warm every reusable buffer, then returns the
// allocations of a second run.
template <typename Run>
uint64_t WarmAllocations(const CellTrace& cell, Run&& run) {
  run(cell);
  const uint64_t before = Allocations();
  run(cell);
  return Allocations() - before;
}

class ZeroAllocationTest : public ::testing::Test {
 protected:
  const std::vector<MachineLayout> layout_ = ChurningLayout(6, 1);
  const CellTrace short_cell_ = ChurningCell(layout_, kShort, 2);
  const CellTrace long_cell_ = ChurningCell(layout_, 2 * kShort, 2);
};

TEST_F(ZeroAllocationTest, SimulateCellAllocatesNothingPerTick) {
  SimOptions options;
  options.parallel = false;
  options.horizon = kPeriod;
  const auto run = [&](const CellTrace& cell) { SimulateCell(cell, AllFamiliesSpec(), options); };
  EXPECT_EQ(WarmAllocations(long_cell_, run), WarmAllocations(short_cell_, run));
}

TEST_F(ZeroAllocationTest, SimulateCellMultiAllocatesNothingPerTick) {
  SimOptions options;
  options.parallel = false;
  options.horizon = kPeriod;
  const std::vector<PredictorSpec> specs = {
      RcLikeSpec(90.0, 3, 10), RcLikeSpec(99.0, 2, 8),     NSigmaSpec(3.0, 3, 10),
      NSigmaSpec(5.0, 2, 8),   ChanceSpec(0.05, 3, 10),    AutopilotSpec(98.0, 1.1, 3, 10),
      FlexSpec(95.0, 1.2, 3, 10), AllFamiliesSpec()};
  const auto run = [&](const CellTrace& cell) { SimulateCellMulti(cell, specs, options); };
  EXPECT_EQ(WarmAllocations(long_cell_, run), WarmAllocations(short_cell_, run));
}

// The replayer is built outside the count and its Advance runs one tick per
// call, as a live stream arrives; the ticks after the first period are
// counted.
TEST_F(ZeroAllocationTest, StreamReplayerAdvanceAllocatesNothingPerTick) {
  ReplayOptions options;
  options.parallel = false;
  options.num_shards = 2;
  options.horizon = kPeriod;
  const auto warm_allocations = [&](const CellTrace& cell) {
    StreamReplayer replayer(cell, AllFamiliesSpec(), options);
    replayer.Advance(kPeriod + 1);
    const uint64_t before = Allocations();
    for (Interval tick = kPeriod + 2; tick <= cell.num_intervals; ++tick) {
      replayer.Advance(tick);
    }
    return Allocations() - before;
  };
  EXPECT_EQ(warm_allocations(short_cell_), 0u);
  EXPECT_EQ(warm_allocations(long_cell_), 0u);
}

// Only Step is counted, after the first period: StartTask and the trace
// builder's own growth are the scheduler's side of the loop.
TEST_F(ZeroAllocationTest, ClusterMachineStepAllocatesNothingPerTick) {
  const MachineLayout& machine_layout = layout_[0];
  const auto warm_step_allocations = [&](Interval num_intervals) {
    CellTraceBuilder trace("cluster", num_intervals, 1);
    ClusterMachine machine(0, 4.0, CreatePredictor(AllFamiliesSpec()), LatencyModelParams{},
                           Rng(3));
    TaskId next_id = 1;
    uint64_t allocations = 0;
    for (Interval now = 0; now < num_intervals; ++now) {
      for (size_t j = 0; j < machine_layout.runtimes.size(); ++j) {
        const Interval runtime = machine_layout.runtimes[j];
        if (now % runtime == 0) {
          const int32_t index = trace.AddTask(next_id, next_id, 0, now, machine_layout.limits[j],
                                              SchedulingClass::kLatencySensitive);
          ++next_id;
          TaskUsageParams params;
          params.limit = machine_layout.limits[j];
          machine.StartTask(trace, index, params, now, runtime);
        }
      }
      const uint64_t before = Allocations();
      machine.Step(now, 0.0, trace);
      if (now > kPeriod) {
        allocations += Allocations() - before;
      }
    }
    return allocations;
  };
  EXPECT_EQ(warm_step_allocations(kShort), 0u);
  EXPECT_EQ(warm_step_allocations(2 * kShort), 0u);
}

}  // namespace
}  // namespace crf
