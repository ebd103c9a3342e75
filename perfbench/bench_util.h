// Shared plumbing of `crf_perfbench`: run configuration, the result
// report, order statistics, a bit-exact digest, and the in-memory span
// tracer used by traced runs.
//
// Spans are recorded only from the benchmark's own code, around its calls into
// each layer's public functions. Each thread appends to its own buffer
// without locking; the buffers are read once, after the measured phase.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}
inline double SecondsSince(Clock::time_point begin) { return SecondsBetween(begin, Clock::now()); }

// Everything a workload needs to know about its run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  // Wall-clock budget of the measured phase. Repetitions start while the
  // budget lasts, and at least kMinReps run.
  double seconds = 10.0;
  bool traced = false;
  // Flip one bit of every correctness expectation, so each check must fire
  // (the smoke test's negative control).
  bool corrupt = false;
  int machines = 0;
  int days = 0;
  // Threads / connections a workload may use: min(4, nproc).
  int pool_threads = 1;
  std::string trace_path;  // batch, serve_live: the generated cell trace
  std::string crf_bin;     // serve_live: the `crf` tool
  std::string work_dir;    // checkpoints, server logs
};

// Untraced runs measure at least this many repetitions; the traced run
// measures one untraced repetition as its overhead baseline.
constexpr int kMinReps = 3;
inline int MinReps(const RunConfig& config) { return config.traced ? 1 : kMinReps; }

// Collects metrics, op counts and failures for the result document.
class Report {
 public:
  // `samples` is the number of observations behind the value (the number of
  // repetitions for a median, the number of timings for a percentile).
  void Metric(const std::string& name, double value, const std::string& unit,
              int64_t samples = 1);
  void Info(const std::string& key, const std::string& value);
  void Attempt(int64_t ops = 1) { attempted_ += ops; }
  // Records a failed op (a refused request, a transport error, or a
  // correctness mismatch) with a one-line reason.
  void Fail(const std::string& reason, int64_t ops = 1);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // The result document (one JSON object).
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  std::map<std::string, Entry> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }
double Max(const std::vector<double>& values);
// The rate of the fastest repetition. Interference from other work on a
// shared host only ever slows a repetition down, so across runs the fastest
// one is a much steadier estimate of the code's own speed than the median.
inline double BestRate(const std::vector<double>& rates) { return Max(rates); }
double Sum(const std::vector<double>& values);

// FNV-1a over a sequence of values, bit-exact for doubles.
class Digest {
 public:
  void AddBytes(const void* data, size_t size);
  void Add(double value) { AddBytes(&value, sizeof(value)); }
  void Add(int64_t value) { AddBytes(&value, sizeof(value)); }
  std::string Hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

bool BitsEqual(double a, double b);

// CPU time (user + system) of this process, or of the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();

// Wall and process CPU seconds of one timed step.
struct StepTime {
  double wall = 0.0;
  double cpu = 0.0;
};

// Starts timing at construction; Stop() returns the step's times so far.
class StepTimer {
 public:
  StepTime Stop() const { return {SecondsSince(wall_), ProcessCpuSeconds() - cpu_}; }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = ProcessCpuSeconds();
};

// Returns freed heap memory to the system and restarts the kernel's
// peak-RSS watermark, so that PeakRssMiB() covers what follows only. Where
// the watermark cannot be reset, PeakRssMiB() covers the whole process.
void ResetPeakMemory();
// Peak resident set of this process since start or ResetPeakMemory(), MiB.
double PeakRssMiB();

// Per-thread span records: each traced call's name and duration.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // string literal, "<layer>.<call>"
    int64_t duration_ns = 0;
  };

  // One thread's span records; appended to without locking.
  class Buffer {
   public:
    void Add(const char* name, int64_t duration_ns) { spans_.push_back({name, duration_ns}); }

   private:
    friend class Tracer;
    std::vector<Span> spans_;
  };

  // A new buffer for the calling thread; stable until the tracer dies.
  Buffer* NewBuffer();

  // Durations of every span named `name`, in seconds.
  std::vector<double> Durations(const char* name) const;

 private:
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;
};

// RAII span; a no-op when `buffer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Buffer* buffer, const char* name)
      : buffer_(buffer),
        name_(name),
        start_(buffer != nullptr ? Clock::now() : Clock::time_point()) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      const auto elapsed = Clock::now() - start_;
      buffer_->Add(name_, std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Buffer* buffer_;
  const char* name_;
  Clock::time_point start_;
};

// Workload entry points. Each runs its measured phase for config.seconds,
// its correctness checks outside the timed code, and fills `report`.
void RunBatch(const RunConfig& config, Report& report);
void RunServeLive(const RunConfig& config, Report& report);
void RunClusterAb(const RunConfig& config, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
