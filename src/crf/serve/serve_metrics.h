// ServeMetrics: operational counters for the streaming serve layer.
//
// Tracks what an operator of the online service would watch: ingest
// throughput (events/s), a predict-latency histogram (log2-nanosecond
// buckets over sampled Observe+Predict rounds), violation counters, and
// per-shard progress (event sequence numbers, peak per-tick batch size —
// the replay analogue of queue depth). Dumped as JSON via ToJson / WriteJson
// for tooling.
//
// Timing-derived fields (latency, events/s) are observational only: they are
// NOT part of checkpoints and carry no determinism guarantee. Everything
// that feeds the final SimResult lives in the replayer's checkpointed
// accumulators instead.

#ifndef CRF_SERVE_SERVE_METRICS_H_
#define CRF_SERVE_SERVE_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crf/stats/histogram.h"

namespace crf {

// One ingestion shard's counters. Owned and written by exactly one thread
// during a replay chunk; aggregated single-threaded afterwards. Cache-line
// aligned because the sequence/tick counters are bumped on every event of
// every tick — adjacent shards sharing a line here serializes the whole
// sharded ingest loop on cache-coherence traffic.
struct alignas(64) ShardMetrics {
  // Events ingested by this shard (its sequence number: every event the
  // shard consumes increments it by one).
  uint64_t sequence = 0;
  // Ticks processed (one per machine per interval).
  uint64_t ticks = 0;
  // Largest single-tick event batch seen (replay queue-depth analogue).
  int64_t max_batch_events = 0;
  // Per-machine scoring-oracle chunks computed (observational, like the
  // latency histogram: not checkpointed, so a restored replayer counts from
  // its resume tick).
  uint64_t oracle_chunks = 0;
  // Sampled predict latency, log2(nanoseconds) buckets.
  BucketedStats predict_latency_log2_ns{0.0, 1.0, 40};

  void MergeFrom(const ShardMetrics& other);
};

class ServeMetrics {
 public:
  explicit ServeMetrics(int num_shards);

  ShardMetrics& shard(int s) { return shards_[s]; }
  const ShardMetrics& shard(int s) const { return shards_[s]; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // Cell-level risk summary aggregated from the replayer's per-machine
  // RiskAccumulators (crf/risk). Deterministic (derived from checkpointed
  // accumulators), refreshed by StreamReplayer::Metrics().
  struct RiskSummary {
    int64_t violations = 0;
    // Longest violation streak on any machine (intervals).
    int64_t max_violation_streak = 0;
    // Worst per-machine p999 violation severity.
    double worst_severity_p999 = 0.0;
    // Violating ∩ occupied intervals / occupied intervals, over all machines.
    double violation_time_fraction = 0.0;
    // Lowest per-machine savings-at-risk (p5 savings over occupied
    // intervals) among machines that held tasks.
    double worst_savings_at_risk = 0.0;
  };

  // Wall-clock seconds spent inside Advance (accumulated by the replayer).
  void AddElapsedSeconds(double seconds) { elapsed_seconds_ += seconds; }
  void SetViolations(int64_t violations) { violations_ = violations; }
  void SetRiskSummary(const RiskSummary& risk) { risk_ = risk; }
  const RiskSummary& risk() const { return risk_; }

  uint64_t TotalEvents() const;
  uint64_t TotalTicks() const;
  double elapsed_seconds() const { return elapsed_seconds_; }
  // Events per second over the accumulated Advance time; 0 before any work.
  double EventsPerSecond() const;

  // Attaches an extra top-level JSON section rendered verbatim under `key`
  // (replacing any previous value for the key). `json_object` must be a
  // complete JSON value. Used by the network tier to publish its "net"
  // section (per-op latency, bytes, connections) through the same snapshot.
  void SetExtraSection(const std::string& key, const std::string& json_object);

  // The full registry as a JSON object (stable key order).
  std::string ToJson() const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<ShardMetrics> shards_;
  double elapsed_seconds_ = 0.0;
  int64_t violations_ = 0;
  RiskSummary risk_;
  // Extra sections in insertion order (stable output).
  std::vector<std::pair<std::string, std::string>> extra_sections_;
};

}  // namespace crf

#endif  // CRF_SERVE_SERVE_METRICS_H_
