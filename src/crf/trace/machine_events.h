// The one trace-driven roster walk, shared by the batch simulator, the fused
// sweep (crf/sim/simulator.cc) and the streaming EventLog (crf/serve).
//
// A machine's tasks are walked as two sorted event lists: arrivals ordered
// by start interval and departures ordered by departure time. The
// comparators are strict weak orderings on the timestamp ONLY, so ties are
// broken by std::sort's (unspecified but deterministic) permutation of the
// input order. Floating-point accumulation over the resident set follows the
// event order, which makes the tie permutation observable: every
// trace-driven engine steps a MachineRoster — not a reimplementation — so
// their per-task arithmetic is bit-identical.
//
// MachineTaskColumns hoists the sealed trace's flat columns once per pass
// and encodes the unified residency rule (trace.h): a task occupies
// [start, departure) with departure == max(start + runtime, start + 1), so
// zero-length tasks are resident for exactly one interval.

#ifndef CRF_TRACE_MACHINE_EVENTS_H_
#define CRF_TRACE_MACHINE_EVENTS_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

// Raw columns of a sealed trace, hoisted once per machine pass so the
// per-interval loops touch flat arrays only.
struct MachineTaskColumns {
  explicit MachineTaskColumns(const CellTrace& cell)
      : start(cell.task_starts()),
        limit(cell.task_limits()),
        id(cell.task_ids()),
        offsets(cell.usage_offsets()),
        usage(cell.usage_arena()) {}

  std::span<const Interval> start;
  std::span<const double> limit;
  std::span<const TaskId> id;
  std::span<const uint64_t> offsets;
  std::span<const float> usage;

  Interval DepartureTime(int32_t i) const {
    const Interval runtime = static_cast<Interval>(offsets[i + 1] - offsets[i]);
    return std::max(start[i] + runtime, start[i] + 1);
  }
  double UsageAt(int32_t i, Interval tau) const {
    const int64_t k = static_cast<int64_t>(tau) - start[i];
    const uint64_t n = offsets[i + 1] - offsets[i];
    return k >= 0 && static_cast<uint64_t>(k) < n
               ? static_cast<double>(usage[offsets[i] + static_cast<uint64_t>(k)])
               : 0.0;
  }
};

// One machine's resident set, stepped one tick at a time. Value type: the
// event lists, the roster and the limit sum reuse their capacity across
// Reset calls, so a warm roster allocates nothing.
class MachineRoster {
 public:
  // Sorts `task_indices` into the arrival and departure lists and positions
  // the roster before tick 0. `cols` must outlive every later call.
  void Reset(const MachineTaskColumns& cols, std::span<const int32_t> task_indices);

  // Applies tick `tau` (strictly after the previous one): subtracts the
  // limits of tasks departing at or before `tau` in departure order,
  // compacts them out of active() preserving the survivors' order (recording
  // their former positions in departed_positions()), appends arrivals
  // starting at or before `tau` in start order while adding their limits,
  // and resets the limit sum to exactly 0 when the roster empties (killing
  // incremental drift).
  void Advance(Interval tau);

  // Repositions the roster as if ticks [0, tick) had been advanced one at a
  // time — roster order and limit sum bit-identical — stepping only the
  // ticks that carry an event.
  void Seek(Interval tick);

  // The tasks the last Advance retired (departure-time order) and admitted
  // (start order): slices of the sorted event lists.
  std::span<const int32_t> departed() const {
    return std::span(departures_).subspan(first_departed_, next_departure_ - first_departed_);
  }
  std::span<const int32_t> arrived() const {
    return std::span(arrivals_).subspan(first_arrived_, next_arrival_ - first_arrived_);
  }
  // The positions the last Advance's departures held in the previous
  // active() list, ascending: with arrived().size(), the RosterDelta a
  // predictor observes (crf/core/predictor.h).
  std::span<const int32_t> departed_positions() const { return departed_positions_; }
  // Resident task indices in roster order: arrival order, departed tasks
  // compacted out.
  const std::vector<int32_t>& active() const { return active_; }
  double limit_sum() const { return limit_sum_; }

 private:
  const MachineTaskColumns* cols_ = nullptr;
  std::vector<int32_t> arrivals_;
  std::vector<int32_t> departures_;
  std::vector<int32_t> active_;
  std::vector<int32_t> departed_positions_;
  size_t next_arrival_ = 0;
  size_t next_departure_ = 0;
  size_t first_arrived_ = 0;
  size_t first_departed_ = 0;
  double limit_sum_ = 0.0;
};

}  // namespace crf

#endif  // CRF_TRACE_MACHINE_EVENTS_H_
