#include "crf/cluster/sharded_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "crf/cluster/ab_experiment.h"
#include "crf/cluster/cell_sim.h"
#include "crf/trace/cell_profile.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"

namespace crf {
namespace {

// A reproducible pseudo-random request stream: `jobs` jobs of `width` tasks
// each, limits cycling through a few sizes. All tasks of one job share a
// job_machines vector and affinity key.
struct RequestStream {
  explicit RequestStream(int jobs, int width) {
    job_machines.resize(jobs);
    for (int j = 0; j < jobs; ++j) {
      for (int i = 0; i < width; ++i) {
        const double limit = 0.05 + 0.05 * ((j * width + i) % 4);
        requests.push_back({limit, &job_machines[j], static_cast<uint64_t>(j)});
      }
    }
  }
  std::vector<std::vector<int>> job_machines;
  std::vector<ShardedScheduler::Request> requests;
};

ShardedSchedulerOptions Options(int shards, ThreadPool* pool) {
  ShardedSchedulerOptions options;
  options.num_shards = shards;
  options.pool = pool;
  return options;
}

// Runs `batches` batches of the stream against a fresh engine and returns
// every result plus the final free-capacity vector.
struct RunOutcome {
  std::vector<int> results;
  std::vector<double> free;
  int64_t stolen = 0;
};

RunOutcome RunStream(const ShardedSchedulerOptions& options, uint64_t seed, int machines,
                     int jobs, int width, int batches) {
  ShardedScheduler engine(options, Rng(seed));
  engine.Reset(machines);
  std::vector<double> capacity(machines);
  for (int m = 0; m < machines; ++m) {
    capacity[m] = 1.0 + 0.01 * (m % 7);
  }
  engine.PublishAll(capacity);
  RunOutcome outcome;
  for (int b = 0; b < batches; ++b) {
    RequestStream stream(jobs, width);
    std::vector<int> results(stream.requests.size(), -1);
    engine.PlaceBatch(stream.requests, results);
    outcome.results.insert(outcome.results.end(), results.begin(), results.end());
  }
  outcome.free.resize(machines);
  for (int m = 0; m < machines; ++m) {
    outcome.free[m] = engine.free_capacity(m);
  }
  outcome.stolen = engine.stolen_placements();
  return outcome;
}

// The determinism contract: for a fixed (seed, num_shards), the placement
// stream and every debited capacity are byte-identical at any thread count,
// including heavily oversubscribed pools.
TEST(ShardedSchedulerTest, ByteDeterministicAcrossThreadCounts) {
  const RunOutcome reference =
      RunStream(Options(4, nullptr), /*seed=*/11, /*machines=*/64, /*jobs=*/20,
                /*width=*/6, /*batches=*/5);
  for (const int threads : {1, 2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    const RunOutcome got = RunStream(Options(4, &pool), 11, 64, 20, 6, 5);
    EXPECT_EQ(got.results, reference.results);
    EXPECT_EQ(got.stolen, reference.stolen);
    ASSERT_EQ(got.free.size(), reference.free.size());
    EXPECT_EQ(std::memcmp(got.free.data(), reference.free.data(),
                          reference.free.size() * sizeof(double)),
              0);
  }
}

TEST(ShardedSchedulerTest, ParallelFlagDoesNotChangeResults) {
  ThreadPool pool(4);
  ShardedSchedulerOptions serial = Options(4, &pool);
  serial.parallel = false;
  const RunOutcome a = RunStream(serial, 3, 48, 16, 4, 3);
  const RunOutcome b = RunStream(Options(4, &pool), 3, 48, 16, 4, 3);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.free, b.free);
}

// Packing quality stays close to the global engine's: same capacities, same
// request stream, every policy. The engines make different (both valid)
// choices, so we bound the aggregate outcome, not individual placements:
// the sharded engine must place at least 95% as many tasks.
TEST(ShardedSchedulerTest, PlacedCountWithinBoundOfGlobalEngine) {
  for (const PackingPolicy policy :
       {PackingPolicy::kBestFit, PackingPolicy::kWorstFit, PackingPolicy::kRandomFit}) {
    SCOPED_TRACE(::testing::Message() << "policy=" << static_cast<int>(policy));
    const int machines = 40;
    std::vector<double> capacity(machines, 1.0);

    Scheduler global(policy, Rng(9), PlacementEngine::kIndexed);
    global.UpdateFreeCapacity(capacity);
    RequestStream global_stream(30, 8);
    int64_t global_placed = 0;
    for (const auto& request : global_stream.requests) {
      const int machine = global.Place(request.limit, *request.job_machines);
      if (machine >= 0) {
        request.job_machines->push_back(machine);
        ++global_placed;
      }
    }

    ShardedSchedulerOptions options = Options(4, nullptr);
    options.packing = policy;
    ShardedScheduler sharded(options, Rng(9));
    sharded.Reset(machines);
    sharded.PublishAll(capacity);
    RequestStream sharded_stream(30, 8);
    std::vector<int> results(sharded_stream.requests.size(), -1);
    sharded.PlaceBatch(sharded_stream.requests, results);
    int64_t sharded_placed = 0;
    for (const int machine : results) {
      sharded_placed += machine >= 0 ? 1 : 0;
    }

    EXPECT_GE(sharded_placed, (global_placed * 95) / 100)
        << "sharded " << sharded_placed << " vs global " << global_placed;
  }
}

// A full home shard must not fail requests other shards can hold: the steal
// phase retries every shard before giving up.
TEST(ShardedSchedulerTest, StealsFromOtherShardsWhenHomeShardIsFull) {
  ShardedScheduler engine(Options(4, nullptr), Rng(2));
  engine.Reset(16);  // 4 machines per shard
  std::vector<double> capacity(16, 1.0);
  for (int m = 0; m < 4; ++m) {
    capacity[m] = 0.0;  // shard 0 advertises nothing
  }
  engine.PublishAll(capacity);

  // Key 0 routes to shard 0 (nonempty_[0 % 4]).
  std::vector<int> job_machines;
  std::vector<ShardedScheduler::Request> requests(6, {0.5, &job_machines, 0});
  std::vector<int> results(requests.size(), -1);
  engine.PlaceBatch(requests, results);
  for (const int machine : results) {
    EXPECT_GE(machine, 4) << "placed on the full home shard";
  }
  EXPECT_EQ(engine.stolen_placements(), 6);
}

// Requests fail only when no shard fits them.
TEST(ShardedSchedulerTest, FailsOnlyWhenNoShardFits) {
  ShardedScheduler engine(Options(3, nullptr), Rng(4));
  engine.Reset(6);
  engine.PublishAll(std::vector<double>(6, 0.4));
  EXPECT_EQ(engine.Place(0.5, nullptr, 1), -1);  // nothing fits anywhere
  EXPECT_GE(engine.Place(0.4, nullptr, 1), 0);   // exactly fits somewhere
}

TEST(ShardedSchedulerTest, SingleShardDegeneratesToOneCore) {
  ShardedScheduler engine(Options(1, nullptr), Rng(5));
  engine.Reset(8);
  engine.PublishAll(std::vector<double>(8, 1.0));
  std::vector<int> job_machines;
  std::set<int> chosen;
  for (int i = 0; i < 8; ++i) {
    const int machine = engine.Place(0.5, &job_machines, 7);
    ASSERT_GE(machine, 0);
    chosen.insert(machine);
  }
  // Anti-affinity spreads the 8 siblings over all 8 machines.
  EXPECT_EQ(chosen.size(), 8u);
  EXPECT_EQ(engine.stolen_placements(), 0);
}

// More shards than machines: the surplus shards are empty and must be
// skipped by routing, stealing, and publishing.
TEST(ShardedSchedulerTest, MoreShardsThanMachines) {
  ShardedScheduler engine(Options(8, nullptr), Rng(6));
  engine.Reset(3);
  const std::vector<double> capacity(3, 1.0);
  engine.PublishAll(capacity);
  std::vector<int> job_machines;
  std::set<int> chosen;
  for (uint64_t key = 0; key < 9; ++key) {
    const int machine = engine.Place(0.3, &job_machines, key);
    ASSERT_GE(machine, 0);
    ASSERT_LT(machine, 3);
    chosen.insert(machine);
  }
  EXPECT_EQ(chosen.size(), 3u);
  EXPECT_EQ(engine.Place(0.3, nullptr, 0), -1);  // every machine now holds 0.9
}

TEST(ShardedSchedulerTest, ZeroMachinesPlacesNothing) {
  ShardedScheduler engine(Options(4, nullptr), Rng(7));
  engine.Reset(0);
  EXPECT_EQ(engine.Place(0.1, nullptr, 0), -1);
}

// The rebalance interval tunes steal routing freshness, never placeability:
// with capacity for everything, every request places at any interval.
TEST(ShardedSchedulerTest, RebalanceIntervalNeverAffectsPlaceability) {
  for (const int interval : {1, 2, 1000}) {
    SCOPED_TRACE(::testing::Message() << "interval=" << interval);
    ShardedSchedulerOptions options = Options(4, nullptr);
    options.rebalance_interval = interval;
    const RunOutcome outcome = RunStream(options, 8, 64, 12, 4, 6);
    for (const int machine : outcome.results) {
      EXPECT_GE(machine, 0);
    }
  }
}

TEST(ShardedSchedulerTest, WithinBatchSiblingsSeeEarlierPlacements) {
  ShardedScheduler engine(Options(2, nullptr), Rng(8));
  engine.Reset(32);  // 16 machines per shard
  engine.PublishAll(std::vector<double>(32, 1.0));
  RequestStream stream(1, 8);  // one 8-wide job, all on one home shard
  std::vector<int> results(stream.requests.size(), -1);
  engine.PlaceBatch(stream.requests, results);
  std::set<int> chosen(results.begin(), results.end());
  ASSERT_EQ(chosen.count(-1), 0u);
  EXPECT_EQ(chosen.size(), results.size());
}

TEST(ShardedSchedulerTest, FreeCapacityAccountsForDebits) {
  ShardedScheduler engine(Options(2, nullptr), Rng(10));
  engine.Reset(4);
  const std::vector<double> capacity(4, 1.0);
  engine.PublishAll(capacity);
  const int machine = engine.Place(0.25, nullptr, 3);
  ASSERT_GE(machine, 0);
  EXPECT_DOUBLE_EQ(engine.free_capacity(machine), 0.75);
  EXPECT_DOUBLE_EQ(engine.TotalFreeCapacity(), 3.75);
  // Publish overwrites the debit with the next advertised view.
  engine.Publish(machine, 1.0);
  EXPECT_DOUBLE_EQ(engine.TotalFreeCapacity(), 4.0);
}

// Under best fit, a request that only a few home machines can hold goes to
// the cell's tightest fit instead of one of its home shard's last large
// holes, and takes that large hole only when no shard fits it more tightly.
TEST(ShardedSchedulerTest, BestFitSparesTheHomeShardsLastLargeHole) {
  for (const PlacementEngine placement :
       {PlacementEngine::kIndexed, PlacementEngine::kLinearScan}) {
    SCOPED_TRACE(::testing::Message() << "engine=" << static_cast<int>(placement));
    ShardedSchedulerOptions options = Options(2, nullptr);
    options.engine = placement;
    ShardedScheduler engine(options, Rng(12));
    engine.Reset(8);  // machines 0-3 on shard 0, 4-7 on shard 1
    engine.PublishAll(std::vector<double>{1.0, 0.0, 0.0, 0.0, 0.15, 0.0, 0.0, 0.0});
    // Key 0 routes to shard 0, where only machine 0 fits.
    EXPECT_EQ(engine.Place(0.1, nullptr, 0), 4);
    EXPECT_EQ(engine.stolen_placements(), 1);
    EXPECT_EQ(engine.Place(0.1, nullptr, 0), 0);
    EXPECT_EQ(engine.stolen_placements(), 1);
  }
}

// End-to-end: the cluster simulation in sharded mode is bit-identical at
// any pool size for a fixed (seed, placement_shards) — the tentpole
// determinism contract, checked at the consumer.
TEST(ShardedSchedulerClusterTest, ClusterSimShardedPoolSizeInvariance) {
  CellProfile profile = SimCellProfile('a');
  profile.num_machines = 19;  // prime, so shard splits are uneven
  ClusterSimOptions options;
  options.num_intervals = 60;
  options.warmup = 12;
  options.placement_shards = 3;
  options.parallel = false;
  const ClusterSimResult reference = RunClusterSim(profile, options, Rng(77));
  EXPECT_GT(reference.tasks_placed, 0);

  for (const int threads : {2, 5}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ThreadPool pool(threads);
    options.pool = &pool;
    options.parallel = true;
    const ClusterSimResult got = RunClusterSim(profile, options, Rng(77));
    EXPECT_EQ(got.tasks_placed, reference.tasks_placed);
    EXPECT_EQ(got.tasks_timed_out, reference.tasks_timed_out);
    EXPECT_EQ(got.pending_task_intervals, reference.pending_task_intervals);
    EXPECT_EQ(got.placement_attempts, reference.placement_attempts);
    EXPECT_EQ(got.predictions, reference.predictions);
    EXPECT_EQ(got.latencies, reference.latencies);
    ASSERT_EQ(got.trace.arena_bytes().size(), reference.trace.arena_bytes().size());
    EXPECT_EQ(std::memcmp(got.trace.arena_bytes().data(),
                          reference.trace.arena_bytes().data(),
                          reference.trace.arena_bytes().size()),
              0);
  }
}

// The sharded cluster sim is a different cell identity than the global
// engine (like a different seed), but it must stay close in packing quality
// on the same profile: placed counts within a few percent, and the violation
// tail, pending backlog and timeouts bounded against the global reference.
// The second input is a 192-machine day split into 8 shards, large enough
// that shard-local placement strands capacity the global scheduler would use.
// Its pending backlog is heavy-tailed across seeds (one seed's ratio is
// noise), so it is bounded once over eight consecutive seeds: the summed
// sharded/global pending ratio. Over 20 disjoint eight-seed sets that ratio
// read 0.69-1.46 with the current placer and 0.89-2.35 with a placer that
// fragments the cell (EXPERIMENTS.md, "Sharded quality over seed sets").
TEST(ShardedSchedulerClusterTest, ClusterSimShardedQualityNearGlobal) {
  struct Run {
    ClusterSimResult global;
    ClusterSimResult sharded;
  };
  const auto run = [](int machines, Interval intervals, Interval warmup, int shards,
                      uint64_t seed) {
    CellProfile profile = SimCellProfile('a');
    profile.num_machines = machines;
    ClusterSimOptions options;
    options.num_intervals = intervals;
    options.warmup = warmup;
    options.parallel = false;
    Run result{RunClusterSim(profile, options, Rng(seed)), {}};
    options.placement_shards = shards;
    result.sharded = RunClusterSim(profile, options, Rng(seed));
    return result;
  };
  const auto violation_p90 = [](const ClusterSimResult& result) {
    return ComputeGroupMetrics(result.predictor_name, std::span(&result, 1))
        .violation_rate.Quantile(0.9);
  };
  // Placed, violation-tail and timeout bounds hold per seed.
  const auto expect_per_seed_quality = [&](const Run& r) {
    ASSERT_GT(r.global.tasks_placed, 0);
    EXPECT_GE(r.sharded.tasks_placed, (r.global.tasks_placed * 97) / 100);
    EXPECT_LE(r.sharded.tasks_placed, (r.global.tasks_placed * 105) / 100);
    EXPECT_LE(violation_p90(r.sharded), violation_p90(r.global) + 0.02);
    EXPECT_LE(r.sharded.tasks_timed_out, 2 * r.global.tasks_timed_out + 100);
  };

  {
    SCOPED_TRACE("24 machines, 4 shards");
    const Run r = run(24, 96, 24, 4, 31);
    expect_per_seed_quality(r);
    EXPECT_LE(r.sharded.pending_task_intervals, 2 * r.global.pending_task_intervals + 2000);
  }

  int64_t global_pending = 0;
  int64_t sharded_pending = 0;
  for (uint64_t seed = 8; seed < 16; ++seed) {
    SCOPED_TRACE(::testing::Message() << "192 machines, 8 shards, seed " << seed);
    const Run r = run(192, kIntervalsPerDay, kIntervalsPerDay / 4, 8, seed);
    expect_per_seed_quality(r);
    global_pending += r.global.pending_task_intervals;
    sharded_pending += r.sharded.pending_task_intervals;
  }
  ASSERT_GT(global_pending, 0);
  EXPECT_LE(static_cast<double>(sharded_pending) / static_cast<double>(global_pending), 1.6)
      << sharded_pending << " sharded vs " << global_pending << " global pending";
}

}  // namespace
}  // namespace crf
