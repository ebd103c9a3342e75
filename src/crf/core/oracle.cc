#include "crf/core/oracle.h"

#include <algorithm>

#include "crf/util/check.h"

namespace crf {

namespace {

// End of the aggregate span the oracle for ticks [begin, end) reads: the
// last tick's window [end - 1, end - 1 + horizon), clipped to the trace. In
// 64 bits so a horizon near INT32_MAX cannot overflow.
Interval AggregateEnd(Interval num_intervals, Interval end, Interval horizon) {
  return static_cast<Interval>(std::min<int64_t>(
      static_cast<int64_t>(end) - 1 + horizon, num_intervals));
}

void CheckRange(const CellTrace& cell, int machine_index, Interval horizon, Interval begin,
                Interval end) {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, cell.num_machines());
  CRF_CHECK_GE(horizon, 1);
  CRF_CHECK_GE(begin, 0);
  CRF_CHECK_LE(begin, end);
  CRF_CHECK_LE(end, cell.num_intervals);
}

}  // namespace

void ComputePeakOracleRangeInto(const CellTrace& cell, int machine_index, Interval horizon,
                                Interval begin, Interval end, OracleScratch& scratch,
                                std::vector<double>& out) {
  CheckRange(cell, machine_index, horizon, begin, end);
  out.assign(end - begin, 0.0);
  if (begin == end) {
    return;
  }
  const Interval num_intervals = cell.num_intervals;
  const Interval aggregate_end = AggregateEnd(num_intervals, end, horizon);
  const std::span<const Interval> starts = cell.task_starts();

  // Tasks ordered by arrival; the aggregate series of "tasks with start <=
  // tau" is constant between consecutive arrivals, so one sliding-window max
  // per segment gives the exact oracle. Every range sorts the machine's whole
  // task list the same way, so each aggregate cell receives the same additions
  // in the same order as in the full series: any slice is bit-identical.
  std::vector<int32_t>& order = scratch.order;
  const std::span<const int32_t> task_indices = cell.machine_tasks(machine_index);
  order.assign(task_indices.begin(), task_indices.end());
  std::sort(order.begin(), order.end(), [starts](int32_t a, int32_t b) {
    return starts[a] < starts[b];
  });

  // aggregate[t - begin] covers tick t in [begin, aggregate_end).
  std::vector<double>& aggregate = scratch.aggregate;
  aggregate.assign(aggregate_end - begin, 0.0);
  size_t next = 0;
  Interval tau = begin;
  while (tau < end) {
    // Admit every task arriving at or before tau into the aggregate.
    while (next < order.size() && starts[order[next]] <= tau) {
      const TaskView task = cell.task(order[next]);
      const std::span<const float> usage = task.usage();
      const Interval from = std::max(task.start(), begin);
      const Interval to = std::min(task.end(), aggregate_end);
      for (Interval t = from; t < to; ++t) {
        aggregate[t - begin] += usage[t - task.start()];
      }
      ++next;
    }
    const Interval segment_end =
        next < order.size() ? std::min(starts[order[next]], end) : end;
    CRF_CHECK_GT(segment_end, tau);

    // Sliding max of `aggregate` over [u, u+horizon) for u in the segment.
    MonotonicMaxDeque& deque = scratch.deque;
    deque.Clear();
    Interval filled_to = tau;
    for (Interval u = tau; u < segment_end; ++u) {
      const Interval window_end =
          static_cast<Interval>(std::min<int64_t>(static_cast<int64_t>(u) + horizon,
                                                  num_intervals));
      while (filled_to < window_end) {
        deque.Push(filled_to, aggregate[filled_to - begin]);
        ++filled_to;
      }
      deque.ExpireBelow(u);
      out[u - begin] = deque.Max();
    }
    tau = segment_end;
  }
}

void ComputePeakOracleInto(const CellTrace& cell, int machine_index, Interval horizon,
                           OracleScratch& scratch, std::vector<double>& out) {
  ComputePeakOracleRangeInto(cell, machine_index, horizon, 0, cell.num_intervals, scratch,
                             out);
}

std::vector<double> ComputePeakOracle(const CellTrace& cell, int machine_index,
                                      Interval horizon) {
  OracleScratch scratch;
  std::vector<double> oracle;
  ComputePeakOracleInto(cell, machine_index, horizon, scratch, oracle);
  return oracle;
}

void ComputeTotalUsageOracleRangeInto(const CellTrace& cell, int machine_index,
                                      Interval horizon, Interval begin, Interval end,
                                      OracleScratch& scratch, std::vector<double>& out) {
  CheckRange(cell, machine_index, horizon, begin, end);
  if (begin == end) {
    out.clear();
    return;
  }
  const Interval aggregate_end = AggregateEnd(cell.num_intervals, end, horizon);

  // The machine's aggregate usage over [begin, aggregate_end), including
  // future arrivals, summed in the machine's task order like the full series.
  std::vector<double>& usage = scratch.aggregate;
  usage.assign(aggregate_end - begin, 0.0);
  for (const int32_t index : cell.machine_tasks(machine_index)) {
    const TaskView task = cell.task(index);
    const std::span<const float> task_usage = task.usage();
    const Interval from = std::max(task.start(), begin);
    const Interval to = std::min(task.end(), aggregate_end);
    for (Interval t = from; t < to; ++t) {
      usage[t - begin] += task_usage[t - task.start()];
    }
  }
  // Windows starting in [begin, end) end by aggregate_end, so the span's
  // clipped windows are exactly the trace's; the tail past `end` is dropped.
  ForwardWindowMaxInto(usage, horizon, scratch.deque, out);
  out.resize(end - begin);
}

void ComputeTotalUsageOracleInto(const CellTrace& cell, int machine_index,
                                 Interval horizon, OracleScratch& scratch,
                                 std::vector<double>& out) {
  ComputeTotalUsageOracleRangeInto(cell, machine_index, horizon, 0, cell.num_intervals,
                                   scratch, out);
}

std::vector<double> ComputeTotalUsageOracle(const CellTrace& cell, int machine_index,
                                            Interval horizon) {
  OracleScratch scratch;
  std::vector<double> oracle;
  ComputeTotalUsageOracleInto(cell, machine_index, horizon, scratch, oracle);
  return oracle;
}

size_t OracleCache::KeyHash::operator()(const Key& key) const {
  // FNV-style combine; the fields are small and well-distributed enough.
  size_t h = std::hash<const void*>()(key.cell);
  h = h * 1099511628211ull ^ std::hash<int64_t>()(key.machine);
  h = h * 1099511628211ull ^ std::hash<int64_t>()(static_cast<int64_t>(key.horizon));
  h = h * 1099511628211ull ^ static_cast<size_t>(key.kind);
  return h;
}

OracleCache::Series OracleCache::GetOrCompute(const CellTrace& cell, int machine_index,
                                              Interval horizon, OracleKind kind) {
  const Key key{&cell, machine_index, horizon, kind};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
  }
  // Compute outside the lock so distinct machines fill the cache in
  // parallel; a racing duplicate computation of the same key is wasted work
  // but harmless (first insert wins below).
  auto series = std::make_shared<const std::vector<double>>(
      kind == OracleKind::kPeak ? ComputePeakOracle(cell, machine_index, horizon)
                                : ComputeTotalUsageOracle(cell, machine_index, horizon));
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = entries_.emplace(key, std::move(series));
  return it->second;
}

void OracleCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
}

int64_t OracleCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

int64_t OracleCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

size_t OracleCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace crf
