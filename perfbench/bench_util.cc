#include "bench_util.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "crf/util/rss.h"

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Report::Metric(const std::string& name, double value, const std::string& unit,
                    int64_t samples) {
  metrics_[name] = Entry{std::isfinite(value) ? value : 0.0, unit, samples};
}

void Report::Info(const std::string& key, const std::string& value) { info_[key] = value; }

void Report::Fail(const std::string& reason, int64_t ops) {
  failed_ += ops;
  if (failures_.size() < 20) {
    failures_.push_back(reason);
  }
  std::fprintf(stderr, "perfbench: FAILED: %s\n", reason.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  char buffer[128];
  for (const auto& [name, entry] : metrics_) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", entry.value);
    out += std::string(first ? "" : ", ") + "\"" + JsonEscape(name) + "\": {\"value\": " +
           buffer + ", \"unit\": \"" + JsonEscape(entry.unit) +
           "\", \"samples\": " + std::to_string(entry.samples) + "}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info_) {
    out += std::string(first ? "" : ", ") + "\"" + JsonEscape(key) + "\": \"" +
           JsonEscape(value) + "\"";
    first = false;
  }
  out += "}, \"failures\": [";
  first = true;
  for (const std::string& reason : failures_) {
    out += std::string(first ? "" : ", ") + "\"" + JsonEscape(reason) + "\"";
    first = false;
  }
  out += "]}\n";
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::clamp(rank, 1.0, double(values.size()))) - 1;
  return values[index];
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

void Digest::AddBytes(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ull;
  }
}

std::string Digest::Hex() const {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, hash_);
  return buffer;
}

bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

namespace {
double CpuSeconds(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}
}  // namespace

double ProcessCpuSeconds() { return CpuSeconds(RUSAGE_SELF); }
double ThreadCpuSeconds() { return CpuSeconds(RUSAGE_THREAD); }

void ResetPeakMemory() {
  malloc_trim(0);
  crf::ResetPeakRss();
}

double PeakRssMiB() { return static_cast<double>(crf::ReadPeakRssBytes()) / (1024.0 * 1024.0); }

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mutex_);
  return &buffers_.emplace_back();
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer.spans_) {
      if (std::strcmp(span.name, name) == 0) {
        out.push_back(static_cast<double>(span.duration_ns) * 1e-9);
      }
    }
  }
  return out;
}

}  // namespace perfbench
