#include "crf/serve/serve_metrics.h"

#include <algorithm>
#include <cstdio>

#include "crf/util/check.h"

namespace crf {

void ShardMetrics::MergeFrom(const ShardMetrics& other) {
  sequence += other.sequence;
  ticks += other.ticks;
  max_batch_events = std::max(max_batch_events, other.max_batch_events);
  oracle_chunks += other.oracle_chunks;
  predict_latency_log2_ns.Merge(other.predict_latency_log2_ns);
}

ServeMetrics::ServeMetrics(int num_shards) : shards_(num_shards) {
  CRF_CHECK_GT(num_shards, 0);
}

uint64_t ServeMetrics::TotalEvents() const {
  uint64_t total = 0;
  for (const ShardMetrics& shard : shards_) {
    total += shard.sequence;
  }
  return total;
}

uint64_t ServeMetrics::TotalTicks() const {
  uint64_t total = 0;
  for (const ShardMetrics& shard : shards_) {
    total += shard.ticks;
  }
  return total;
}

double ServeMetrics::EventsPerSecond() const {
  return elapsed_seconds_ > 0.0 ? static_cast<double>(TotalEvents()) / elapsed_seconds_ : 0.0;
}

std::string ServeMetrics::ToJson() const {
  // Aggregate latency across shards for the top-level histogram.
  ShardMetrics all;
  for (const ShardMetrics& shard : shards_) {
    all.MergeFrom(shard);
  }

  std::string out = "{\n";
  char buffer[192];
  std::snprintf(buffer, sizeof(buffer),
                "  \"events\": %llu,\n  \"ticks\": %llu,\n  \"elapsed_seconds\": %.6f,\n"
                "  \"events_per_second\": %.1f,\n  \"violations\": %lld,\n",
                static_cast<unsigned long long>(TotalEvents()),
                static_cast<unsigned long long>(TotalTicks()), elapsed_seconds_,
                EventsPerSecond(), static_cast<long long>(violations_));
  out += buffer;

  out += "  \"predict_latency_log2_ns\": [";
  bool first = true;
  for (int i = 0; i < all.predict_latency_log2_ns.num_buckets(); ++i) {
    const RunningStats& bucket = all.predict_latency_log2_ns.bucket(i);
    if (bucket.empty()) {
      continue;
    }
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n    {\"log2_ns\": %d, \"count\": %lld, \"mean_ns\": %.1f}",
                  first ? "" : ",", i, static_cast<long long>(bucket.count()),
                  bucket.mean());
    out += buffer;
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";

  std::snprintf(buffer, sizeof(buffer),
                "  \"risk\": {\"max_violation_streak\": %lld, "
                "\"worst_severity_p999\": %.9g, \"violation_time_fraction\": %.9g, "
                "\"worst_savings_at_risk\": %.9g},\n",
                static_cast<long long>(risk_.max_violation_streak),
                risk_.worst_severity_p999, risk_.violation_time_fraction,
                risk_.worst_savings_at_risk);
  out += buffer;

  out += "  \"shards\": [";
  for (int s = 0; s < num_shards(); ++s) {
    const ShardMetrics& shard = shards_[s];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n    {\"shard\": %d, \"sequence\": %llu, \"ticks\": %llu, "
                  "\"max_batch_events\": %lld, \"oracle_chunks\": %llu}",
                  s == 0 ? "" : ",", s, static_cast<unsigned long long>(shard.sequence),
                  static_cast<unsigned long long>(shard.ticks),
                  static_cast<long long>(shard.max_batch_events),
                  static_cast<unsigned long long>(shard.oracle_chunks));
    out += buffer;
  }
  out += "\n  ]";
  for (const auto& [key, json] : extra_sections_) {
    out += ",\n  \"" + key + "\": ";
    // Re-indent the section body so nested objects read like the rest of the
    // document (the value arrives as a standalone JSON string).
    for (char c : json) {
      out += c;
      if (c == '\n') {
        out += "  ";
      }
    }
  }
  out += "\n}\n";
  return out;
}

void ServeMetrics::SetExtraSection(const std::string& key, const std::string& json_object) {
  for (auto& section : extra_sections_) {
    if (section.first == key) {
      section.second = json_object;
      return;
    }
  }
  extra_sections_.emplace_back(key, json_object);
}

bool ServeMetrics::WriteJson(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) == json.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace crf
