// Sharded placement engine: parallel shard-local capacity treaps with
// periodic cross-shard rebalancing (DESIGN.md §"Sharded placement").
//
// The global Scheduler is a single serial decision stream: every placement
// mutates one CapacityTournamentTree, so the placement phase cannot use the
// thread pool no matter how many machines the cell has. This engine
// partitions the machines into S contiguous shards, each owning a private
// PlacementCore (its own treap, free-capacity vector, and RNG fork), and
// places task *batches* in three phases:
//
//   1. Route (serial):  each request is assigned a home shard from its
//      affinity key (all tasks of one job share a key, so anti-affinity
//      spreading is evaluated sequentially within one shard).
//   2. Shard phase (parallel): shards place their routed subsequences
//      independently on the epoch-dispatch pool (ParallelForRanges). A shard
//      only ever touches its own treap, RNG, and scratch, so the thread
//      count and claim order cannot affect any shard's decision stream.
//      Under best fit, a request that only a few home machines can hold is
//      passed on unplaced: a shard short of room would spend one of its last
//      large holes on it, fragmenting the cell faster than a global best fit.
//   3. Steal phase (serial, batch order): the requests the shards passed on
//      are served oldest first. Under best fit each goes to the shard holding
//      the cell's tightest fit. Other policies retry the other shards,
//      richest first by the cross-shard free-capacity summaries. Summaries
//      are refreshed every `rebalance_interval` batches (and on every bulk
//      publish); a stale summary only reorders the candidate walk — it falls
//      back to trying every shard before giving up. Either way a request
//      fails only if no shard can place it.
//
// Determinism contract: for a fixed (seed, num_shards) the full result
// sequence — placements, debited capacities, per-shard RNG states — is
// byte-identical at any thread count, because each shard's core is advanced
// only by its own serial subsequence plus the serial steal phase. Changing
// `num_shards` changes the partition and therefore the placements; it is
// part of the run's identity, like the seed.

#ifndef CRF_CLUSTER_SHARDED_SCHEDULER_H_
#define CRF_CLUSTER_SHARDED_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crf/cluster/scheduler.h"
#include "crf/util/rng.h"
#include "crf/util/thread_pool.h"

namespace crf {

struct ShardedSchedulerOptions {
  int num_shards = 8;
  // Batches between cross-shard free-capacity summary refreshes (>= 1).
  // Smaller = fresher steal routing for worst and random fit (better packing
  // under imbalance), larger = less summary traffic. Best fit steals by the
  // shards' live tightest fit instead. Never affects which requests are
  // placeable.
  int rebalance_interval = 8;
  PackingPolicy packing = PackingPolicy::kBestFit;
  PlacementEngine engine = PlacementEngine::kIndexed;
  // Pool for the shard phase; nullptr uses ThreadPool::Default().
  ThreadPool* pool = nullptr;
  // false runs the shard phase inline (results are identical either way).
  bool parallel = true;
};

class ShardedScheduler {
 public:
  // Shard RNGs are forked from `rng` by shard index, so the decision streams
  // depend only on (seed, num_shards).
  ShardedScheduler(const ShardedSchedulerOptions& options, const Rng& rng);

  // Sizes the engine for `num_machines` machines (global ids [0, M)) with
  // zero advertised free capacity. Shard s owns the contiguous range
  // [floor(s*M/S), floor((s+1)*M/S)); shards beyond M are empty and skipped.
  void Reset(int num_machines);

  // Bulk publish of every machine's advertised free capacity, ingested
  // shard-parallel. Also refreshes the cross-shard summaries.
  void PublishAll(std::span<const double> free_capacity);

  // Publishes one machine's advertised free capacity (serial).
  void Publish(int machine, double free);

  struct Request {
    double limit = 0.0;
    // Anti-affinity list of global machine ids, and the commit target: on
    // success the chosen machine is appended, so later siblings in the same
    // batch see it. All requests sharing a vector must share affinity_key.
    // May be nullptr.
    std::vector<int>* job_machines = nullptr;
    // Requests with equal keys route to the same home shard.
    uint64_t affinity_key = 0;
  };

  // Places requests[i] into results[i] (global machine id, or -1 if no
  // shard can fit it). Successful placements debit the owning shard's
  // advertised free capacity by the request's limit.
  void PlaceBatch(std::span<const Request> requests, std::span<int> results);

  // Single-request convenience wrapper over PlaceBatch.
  int Place(double limit, std::vector<int>* job_machines, uint64_t affinity_key);

  double free_capacity(int machine) const;
  int num_machines() const { return num_machines_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Telemetry.
  int64_t stolen_placements() const { return stolen_placements_; }
  int64_t batches() const { return batches_; }
  int64_t rebalances() const { return rebalances_; }
  double TotalFreeCapacity() const;

 private:
  // Padded so concurrent shard phases never false-share adjacent shards'
  // mutable state (cores mutate treaps and RNGs on every placement).
  struct alignas(64) Shard {
    Shard(PackingPolicy packing, PlacementEngine engine, const Rng& rng)
        : core(packing, engine, rng) {}
    PlacementCore core;
    int base = 0;   // first global machine id owned by this shard
    int count = 0;  // machines owned
    double max_free_summary = 0.0;  // as of the last rebalance
    // Batch scratch.
    std::vector<int> routed;         // request indices routed here, in order
    std::vector<int> overflow;       // routed requests passed to the steal phase
    std::vector<int> exclude_local;  // shard-local translated exclusions
  };

  int HomeShard(const Request& request) const;
  // Translates the request's exclusions into `shard`'s local numbering,
  // places, and on success appends the global machine id to job_machines.
  int PlaceOnShard(Shard& shard, const Request& request);
  // Steal phase under best fit: places on the shard whose tightest fit for
  // the request is smallest (ties to the earlier shard).
  int PlaceOnTightestShard(const Request& request);
  // Steal phase under the other policies: the summary walk, then every
  // shard not yet tried. `home` was tried by the shard phase.
  int StealBySummaries(int home, const Request& request);
  void RefreshSummaries();

  ShardedSchedulerOptions options_;
  int num_machines_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<int> shard_of_;       // global machine id -> shard index
  std::vector<int> nonempty_;       // shard indices with count > 0
  std::vector<int> steal_order_;    // nonempty shards, richest summary first
  std::vector<uint8_t> tried_;      // per-request steal scratch, size S
  std::vector<int> overflow_;       // every shard's overflow, in batch order
  int64_t stolen_placements_ = 0;
  int64_t batches_ = 0;
  int64_t rebalances_ = 0;
};

}  // namespace crf

#endif  // CRF_CLUSTER_SHARDED_SCHEDULER_H_
