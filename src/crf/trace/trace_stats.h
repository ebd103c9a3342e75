// Descriptive statistics over traces, shared by the motivation/background
// experiments (Figs 1, 4, 6, 7) and the examples.

#ifndef CRF_TRACE_TRACE_STATS_H_
#define CRF_TRACE_TRACE_STATS_H_

#include <span>
#include <string>
#include <vector>

#include "crf/stats/ecdf.h"
#include "crf/trace/trace.h"

namespace crf {

// Tasks submitted per interval (interval 0 is excluded: the initial resident
// population is not a submission wave). Fig 4.
std::vector<int64_t> SubmissionRateSeries(const CellTrace& cell);

// Runtime in hours of every task. Fig 7(a).
Ecdf TaskRuntimeHoursCdf(const CellTrace& cell);

// Usage-to-limit ratio samples over all (task, interval) pairs, subsampled
// by `stride` over intervals. Fig 7(c).
Ecdf UsageToLimitCdf(const CellTrace& cell, int stride = 4);

// Cell-level sum of limits / usage per interval.
std::vector<double> CellLimitSeries(const CellTrace& cell);
std::vector<double> CellUsageSeries(const CellTrace& cell);

// For each interval tau, the sum over tasks resident at tau of the task's own
// future peak usage within `horizon` intervals: the "sum(task-level peak)"
// curve of Fig 1. (The machine-level counterpart is the peak oracle, in
// crf/core/oracle.h.)
std::vector<double> TaskLevelFuturePeakSum(const CellTrace& cell, Interval horizon);

// Relative error samples (approx_peak - actual_peak) / actual_peak where
// approx_peak = sum over resident tasks of their within-interval percentile
// `p` (p in {50,60,70,80,90,95,99,100}) and actual_peak is the machine's
// ground-truth within-interval peak. Requires rich stats. Fig 6.
Ecdf PercentileSumPeakErrorCdf(const CellTrace& cell, int percentile, int stride = 4);

// One-pass grid variant: the error CDFs for every percentile in
// `percentiles` (result order matches input order) from a single walk of the
// trace — each task-interval's rich stats row is loaded once and queried for
// all percentiles, instead of re-walking the whole cell per percentile as
// repeated PercentileSumPeakErrorCdf calls would. Fig 6 runs its whole
// percentile grid through this.
std::vector<Ecdf> PercentileSumPeakErrorCdfs(const CellTrace& cell,
                                             std::span<const int> percentiles,
                                             int stride = 4);

// Physical layout summary of a sealed trace: per-machine CSR row widths and
// the sizes of the arena's column slabs. Shown by `crf info`.
struct TraceLayoutStats {
  int32_t num_machines = 0;
  int32_t min_tasks_per_machine = 0;
  double mean_tasks_per_machine = 0.0;
  int32_t max_tasks_per_machine = 0;
  int64_t csr_entries = 0;  // total placed tasks across CSR rows
  int64_t usage_samples = 0;
  // Slab sizes in bytes. task_column_bytes covers every per-task column
  // (ids, jobs, machines, starts, classes, limits, usage offsets);
  // csr_bytes is the row payload (task indices), excluding row offsets.
  int64_t arena_bytes = 0;
  int64_t task_column_bytes = 0;
  int64_t usage_bytes = 0;
  int64_t csr_bytes = 0;
  int64_t peak_bytes = 0;
  int64_t rich_bytes = 0;
  // Load mode: true when the arena is an mmap of the trace file rather than
  // a heap copy. resident_bytes is how much of the mapped arena this process
  // holds resident at this moment, its smaps Rss, however much of the file
  // the page cache holds (== arena_bytes on heap loads, which are always
  // fully resident).
  bool mapped = false;
  int64_t resident_bytes = 0;
};

TraceLayoutStats ComputeTraceLayoutStats(const CellTrace& cell);

// Fixed three-line rendering of the layout stats (golden-tested; `crf info`
// prints it verbatim). The third line reports the load mode; its resident
// figure is a live kernel estimate on mapped traces, so only the heap form
// is byte-stable.
std::string DescribeTraceLayout(const TraceLayoutStats& stats);

}  // namespace crf

#endif  // CRF_TRACE_TRACE_STATS_H_
